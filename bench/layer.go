package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/store"
)

// layerVal is one per-layer metric: its value and the samples behind it.
type layerVal struct {
	v       float64
	samples []float64
}

// layers derives every per-layer metric of a traced run, and names the
// percentiles among them that have fewer than ten samples beyond them.
// Counters the benchmark noted per pass report their median; the rest come
// from the spans, attributed to the set-up, cold or warm pass they ran
// under. Store reads are taken from the warm passes (a cold pass's reads
// all miss), campaign submissions from the set-ups, everything else from
// the cold passes.
func (r *runner) layers() (map[string]layerVal, []string) {
	out := map[string]layerVal{}
	for _, s := range perLayer {
		if xs, ok := r.samples[s.Name]; ok {
			out[s.Name] = layerVal{median(xs), xs}
		}
	}
	spans := r.tr.snapshot()
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	passOf := map[uint64]*span{}
	var find func(s *span) *span
	find = func(s *span) *span {
		if p, ok := passOf[s.ID]; ok {
			return p
		}
		var p *span
		switch {
		case strings.HasPrefix(s.Name, "pass.") || s.Name == "setup":
			p = s
		case s.Parent != 0 && byID[s.Parent] != nil:
			p = find(byID[s.Parent])
		}
		passOf[s.ID] = p
		return p
	}
	// perPass groups the spans of one kind of pass by pass and by name.
	type group map[uint64][]*span
	grouped := map[string]map[string]group{"setup": {}, "pass.cold": {}, "pass.warm": {}}
	var passes = map[string][]uint64{}
	for i := range spans {
		s := &spans[i]
		if grouped[s.Name] != nil {
			passes[s.Name] = append(passes[s.Name], s.ID)
			continue
		}
		p := find(s)
		if p == nil {
			continue
		}
		byName := grouped[p.Name]
		if byName[s.Name] == nil {
			byName[s.Name] = group{}
		}
		byName[s.Name][p.ID] = append(byName[s.Name][p.ID], s)
	}
	// perPass is a per-pass aggregate's median over the passes of a kind;
	// pooled collects the spans of every such pass.
	perPass := func(kind, name string, f func([]*span) float64) layerVal {
		var xs []float64
		for _, id := range passes[kind] {
			xs = append(xs, f(grouped[kind][name][id]))
		}
		return layerVal{median(xs), xs}
	}
	pooled := func(kind, name string) []*span {
		var all []*span
		for _, id := range passes[kind] {
			all = append(all, grouped[kind][name][id]...)
		}
		return all
	}
	count := func(ss []*span) float64 { return float64(len(ss)) }
	total := func(ss []*span) float64 {
		t := 0.0
		for _, s := range ss {
			t += s.dur().Seconds()
		}
		return t
	}
	durs := func(ss []*span, scale time.Duration) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = float64(s.dur()) / float64(scale)
		}
		return xs
	}
	// tail sets a percentile metric and notes it as thin when fewer than
	// ten of its samples lie beyond it.
	var thin []string
	tail := func(name string, xs []float64, p float64) {
		v, ok := percentile(xs, p)
		out[name] = layerVal{v: v}
		if !ok && len(xs) > 0 {
			thin = append(thin, name)
		}
	}

	for _, d := range []string{"matrix", "figures", "bisect_sample", "laghos", "injection"} {
		out["experiments."+d+"_s"] = perPass("pass.cold", "experiments."+d, total)
	}
	out["experiments.warmstart_s"] = perPass("pass.warm", "experiments.warmstart", total)
	out["experiments.replay_s"] = perPass("pass.warm", "experiments.replay", total)

	// Search latencies, pooled over the cold passes. Only the bisect
	// workload runs enough searches to leave ten beyond the p98.
	tail("bisect.search_p50_ms", r.searchMs, 50)
	tail("bisect.search_p98_ms", r.searchMs, 98)

	gets := pooled("pass.warm", "store.get")
	hits := 0
	for _, s := range gets {
		if s.Outcome == "hit" {
			hits++
		}
	}
	out["store.get_calls"] = perPass("pass.warm", "store.get", count)
	out["store.get_hit_ratio"] = layerVal{v: ratio(float64(hits), float64(len(gets)))}
	out["store.get_s"] = perPass("pass.warm", "store.get", total)
	tail("store.get_p50_us", durs(gets, time.Microsecond), 50)
	tail("store.get_p99_us", durs(gets, time.Microsecond), 99)
	puts := pooled("pass.cold", "store.put")
	out["store.put_calls"] = perPass("pass.cold", "store.put", count)
	out["store.put_s"] = perPass("pass.cold", "store.put", total)
	tail("store.put_p50_us", durs(puts, time.Microsecond), 50)
	tail("store.put_p99_us", durs(puts, time.Microsecond), 99)
	out["store.put_bytes"] = perPass("pass.cold", "store.put", func(ss []*span) float64 {
		b := 0.0
		for _, s := range ss {
			b += float64(s.Bytes)
		}
		return b
	})
	// Busy share: time inside the store, over the cold pass's wall time
	// times the engine's parallelism (the base, reported beside it).
	var busy, base []float64
	for _, id := range passes["pass.cold"] {
		b := total(grouped["pass.cold"]["store.get"][id]) + total(grouped["pass.cold"]["store.put"][id])
		w := byID[id].dur().Seconds() * float64(r.j)
		busy = append(busy, ratio(b, w))
		base = append(base, w)
	}
	out["store.busy_share"] = layerVal{median(busy), busy}
	out["store.busy_base_s"] = layerVal{median(base), base}

	// HTTP: client spans of the cold generation. Wait is a round trip's
	// time not spent in the server's handler: queueing and transport.
	var client []*span
	var names []string
	for name := range grouped["pass.cold"] {
		if strings.HasPrefix(name, "http.") {
			names = append(names, name)
			client = append(client, pooled("pass.cold", name)...)
		}
	}
	server := map[uint64]time.Duration{}
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, "coord.") && spans[i].Parent != 0 {
			server[spans[i].Parent] += spans[i].dur()
		}
	}
	var reqs, wait []float64
	for _, id := range passes["pass.cold"] {
		n, w := 0.0, 0.0
		for _, name := range names {
			for _, s := range grouped["pass.cold"][name][id] {
				n++
				w += (s.dur() - server[s.ID]).Seconds()
			}
		}
		reqs = append(reqs, n)
		wait = append(wait, w)
	}
	out["http.requests"] = layerVal{median(reqs), reqs}
	tail("http.rtt_p50_ms", durs(client, time.Millisecond), 50)
	tail("http.rtt_p99_ms", durs(client, time.Millisecond), 99)
	out["http.wait_s"] = layerVal{median(wait), wait}

	for _, rt := range coordRoutes {
		kind := "pass.cold"
		if rt == "submit" {
			kind = "setup" // campaigns are submitted before the cold pass
		}
		ss := pooled(kind, "coord."+rt)
		out["coord."+rt+"_calls"] = perPass(kind, "coord."+rt, count)
		tail("coord."+rt+"_p50_ms", durs(ss, time.Millisecond), 50)
		tail("coord."+rt+"_p99_ms", durs(ss, time.Millisecond), 99)
		out["coord."+rt+"_s"] = perPass(kind, "coord."+rt, total)
	}
	leases := pooled("pass.cold", "coord.lease")
	empty := 0
	for _, s := range leases {
		if s.Outcome != "granted" {
			empty++
		}
	}
	out["coord.lease_empty_ratio"] = layerVal{v: ratio(float64(empty), float64(len(leases)))}

	cold := r.samples["cold_s"]
	out["trace.overhead_ratio"] = layerVal{v: ratio(median(cold), r.coldRefS)}
	return out, thin
}

// probe times the layers under a full-build matrix cell, one cell at a time
// in one goroutine, over every cell of the 244×19 MFEM matrix: the plan and
// its key, the link, the cost model, and the run itself (machine, symbol
// dispatch, arithmetic and application code).
func (r *runner) probe() error {
	sp := r.tr.begin("probe", 0, "probe")
	defer sp.end()
	p := mfem.Program()
	tests := mfem.AllCases()
	var keyUs, linkUs, costUs, runUs []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	for _, c := range comp.Matrix() {
		t0 := time.Now()
		plan := link.FullBuildPlan(p, c)
		_ = plan.Key()
		keyUs = append(keyUs, us(t0))
		t0 = time.Now()
		ex, err := link.Link(plan)
		linkUs = append(linkUs, us(t0))
		if err != nil {
			return err
		}
		for _, t := range tests {
			t0 = time.Now()
			_ = ex.Cost(t.Root())
			costUs = append(costUs, us(t0))
			t0 = time.Now()
			_, err := flit.RunAll(t, ex)
			runUs = append(runUs, us(t0))
			if err != nil {
				return err
			}
		}
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"link.plan_key", keyUs}, {"link.link", linkUs}, {"comp.cost", costUs}, {"flit.runall", runUs}} {
		p50, _ := percentile(m.xs, 50)
		r.note(m.name+"_p50_us", p50)
		r.note(m.name+"_s", sum(m.xs)/1e6)
	}
	return nil
}

// writeAtomicProbeCalls is how many atomic file writes the write probe
// times, at the median size of the run's store entries.
const writeAtomicProbeCalls = 200

func (r *runner) writeAtomicProbe() error {
	var sizes []float64
	for _, s := range r.tr.snapshot() {
		if s.Name == "store.put" {
			sizes = append(sizes, float64(s.Bytes))
		}
	}
	if len(sizes) == 0 {
		return nil
	}
	dir, err := r.scratch("write-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	data := bytes.Repeat([]byte{'x'}, int(median(sizes)))
	var xs []float64
	for i := 0; i < writeAtomicProbeCalls; i++ {
		t0 := time.Now()
		if err := store.WriteFileAtomic(filepath.Join(dir, "entry"), data); err != nil {
			return err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p50, _ := percentile(xs, 50)
	r.note("store.write_atomic_p50_us", p50)
	return nil
}
