package flit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/prog"
)

// fuzzTest is a minimal TestCase whose identity is its name — the handle
// the key fuzzer uses to vary the test component of a run key.
type fuzzTest struct{ name string }

func (t fuzzTest) Name() string                                 { return t.name }
func (t fuzzTest) Root() string                                 { return "S" }
func (t fuzzTest) GetInputsPerRun() int                         { return 1 }
func (t fuzzTest) GetDefaultInput() []float64                   { return []float64{1} }
func (t fuzzTest) Run([]float64, *link.Machine) (Result, error) { return Result{}, nil }
func (t fuzzTest) Compare(baseline, other Result) float64       { return 0 }

// fuzzRunKey builds the cache/artifact key for one (program, plan, test)
// tuple assembled from free-form strings.
func fuzzRunKey(progName, compiler, opt, switches, test string) string {
	p := prog.New(progName)
	p.AddFile("f.cpp", &prog.Symbol{Name: "S", Exported: true, Work: 1})
	plan := link.FullBuildPlan(p, comp.Compilation{Compiler: compiler, OptLevel: opt, Switches: switches})
	return PlanRunKey(link.NewBuilder(plan), fuzzTest{name: test})
}

// FuzzRunKeyInjective is the shard/cache key safety net: no two distinct
// (program, build plan, test) tuples may serialize to the same key.
// Without the KeyEscape encoding, free-form names containing the key
// format's structural characters ('|', '=', NUL) could collide — merged
// shard artifacts would then silently answer one tuple's evaluation with
// another tuple's result.
func FuzzRunKeyInjective(f *testing.F) {
	f.Add("quickstart", "g++", "-O2", "", "Quickstart",
		"quickstart", "g++", "-O2", "-mavx2 -mfma", "Quickstart")
	f.Add("p", "g++", "-O2", "", "T",
		"p", "g++", "-O2", "", "T2")
	// Structural-character abuse: without escaping, these families collide.
	f.Add("p|base=g++|-O2|", "x", "-O0", "", "T",
		"p", "g++", "-O2", "", "T")
	f.Add("p", "g++ -O2", "-O0", "", "T",
		"p", "g++", "-O2 -O0", "", "T")
	f.Add("p", "g", "f:x", "y", "T",
		"p", "g", "f:x|y", "", "T")
	f.Add("p", "c", "-O1", "a", "T\x00U",
		"p", "c", "-O1", "a\x00T", "U")
	f.Add("p", "c%7C", "-O1", "", "T",
		"p", "c|", "-O1", "", "T")
	f.Fuzz(func(t *testing.T,
		prog1, comp1, opt1, sw1, test1,
		prog2, comp2, opt2, sw2, test2 string) {
		same := prog1 == prog2 && comp1 == comp2 && opt1 == opt2 && sw1 == sw2 && test1 == test2
		k1 := fuzzRunKey(prog1, comp1, opt1, sw1, test1)
		k2 := fuzzRunKey(prog2, comp2, opt2, sw2, test2)
		if same && k1 != k2 {
			t.Fatalf("identical tuples produced different keys:\n%q\n%q", k1, k2)
		}
		if !same && k1 == k2 {
			t.Fatalf("distinct tuples collided on key %q:\n(%q,%q,%q,%q,%q)\n(%q,%q,%q,%q,%q)",
				k1, prog1, comp1, opt1, sw1, test1, prog2, comp2, opt2, sw2, test2)
		}
	})
}

// FuzzArtifactDecode hardens the artifact ingestion path against
// malformed files: whatever bytes arrive, decoding plus validation must
// either reject with an error or yield an artifact that seeds cleanly —
// never panic, and never silently merge a malformed file. In particular a
// duplicate key (the same run recorded twice, however the copies relate)
// must be rejected: first-in-wins seeding would otherwise let one copy
// silently answer for the other.
func FuzzArtifactDecode(f *testing.F) {
	valid := func() []byte {
		c := NewCache()
		c.runs.Seed("k1", runVal{res: ScalarResult(1.5)}, nil)
		c.runs.Seed("k2", runVal{res: VecResult([]float64{1, 2})}, nil)
		var buf bytes.Buffer
		if err := c.Export(exec.Shard{}, []string{"run"}).WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-object
	// Trailing data after the JSON object: a concatenated second artifact, a
	// stray brace pair, raw garbage. ReadArtifact must reject all of them —
	// json.Decoder reads a stream, and accepting "artifact + anything" would
	// let a torn rewrite (new file + tail of the old) import as valid.
	f.Add(append(append([]byte{}, valid...), valid...))
	f.Add(append(append([]byte{}, valid...), []byte("{}")...))
	f.Add(append(append([]byte{}, valid...), []byte("x")...))
	f.Add(append(append([]byte{}, valid...), []byte("\n \t\n")...)) // whitespace only: fine
	f.Add(bytes.Replace(valid, []byte(`"engine"`), []byte(`"en�ine"`), 1))
	dup := fmt.Sprintf(`{"version":%d,"engine":%q,"shard":{"index":0,"count":1},`+
		`"runs":[{"key":"k","scalar":1},{"key":"k","scalar":2}]}`,
		ArtifactVersion, EngineVersion)
	f.Add([]byte(dup))
	f.Add([]byte(strings.Replace(dup, `"scalar":2`, `"scalar":1`, 1))) // agreeing duplicate
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"engine":%q,"shard":{"index":5,"count":2}}`,
		ArtifactVersion, EngineVersion))) // impossible shard coordinates
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return // rejected at decode: fine
		}
		dupKey := func() bool {
			seen := map[string]bool{}
			for _, r := range a.Runs {
				if seen[r.Key] {
					return true
				}
				seen[r.Key] = true
			}
			return false
		}()
		checkErr := a.Check()
		if dupKey && checkErr == nil {
			t.Fatalf("duplicate-key artifact passed Check: %s", data)
		}
		c := NewCache()
		seedErr := c.WarmStart(false, a)
		if (checkErr == nil) != (seedErr == nil) {
			t.Fatalf("Check (%v) and WarmStart (%v) disagree", checkErr, seedErr)
		}
		if seedErr != nil {
			return
		}
		// An accepted artifact must have seeded exactly its distinct keys.
		if got := c.runs.Len(); got != len(a.Runs) {
			t.Fatalf("accepted artifact with %d runs seeded %d entries", len(a.Runs), got)
		}
	})
}

// FuzzArtifactVersionCheck: an artifact is accepted exactly when both its
// format version and engine version match this build — merge must reject
// everything else, whatever the foreign version strings look like.
func FuzzArtifactVersionCheck(f *testing.F) {
	f.Add(EngineVersion, ArtifactVersion)
	f.Add("flit-engine/1", ArtifactVersion)
	f.Add("", ArtifactVersion)
	f.Add(EngineVersion, 0)
	f.Add(EngineVersion+" ", ArtifactVersion)
	f.Fuzz(func(t *testing.T, engine string, version int) {
		a := &Artifact{Version: version, Engine: engine}
		err := a.Check()
		wantOK := engine == EngineVersion && version == ArtifactVersion
		if wantOK && err != nil {
			t.Fatalf("matching versions rejected: %v", err)
		}
		if !wantOK && err == nil {
			t.Fatalf("artifact with engine=%q version=%d accepted by a %q/v%d build",
				engine, version, EngineVersion, ArtifactVersion)
		}
		if err != nil {
			if merr := NewCache().WarmStart(false, a); merr == nil {
				t.Fatal("WarmStart accepted an artifact Check rejects")
			}
		}
	})
}

// FuzzShardSetFold pins the shard-set union, the trust boundary that
// merge, delta, warm start and the coordinator's validation all fold
// through. Two artifacts decoded from fuzzed bytes, taken as shards 0/2
// and 1/2 of one set, are accepted exactly when both pass Check, their
// commands are equal, and every run key both record has the same bits
// (the same encoding). A Merge of an accepted set exports exactly the
// union of the two artifacts' records. The seeds are a real 2-shard set
// and two copies of it whose shard 1 re-records a run key shard 0 also
// records: once with a flipped result bit, once as an error.
func FuzzShardSetFold(f *testing.F) {
	shards := make([]*Artifact, 2)
	for i := range shards {
		s := newSuite()
		s.Cache, s.Shard = NewCache(), exec.Shard{Index: i, Count: 2}
		if _, err := s.RunMatrix(comp.Matrix()[:6]); err != nil {
			f.Fatal(err)
		}
		shards[i] = s.Cache.Export(s.Shard, []string{"matrix"})
	}
	encode := func(a *Artifact) []byte {
		var buf bytes.Buffer
		if err := a.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	s0 := encode(shards[0])
	f.Add(s0, encode(shards[1]))
	in0 := map[string]bool{}
	for _, r := range shards[0].Runs {
		in0[r.Key] = true
	}
	shared := slices.IndexFunc(shards[1].Runs, func(r RunRecord) bool { return in0[r.Key] })
	if shared < 0 {
		f.Fatal("the seed shards share no run key")
	}
	contradict := func(edit func(r *RunRecord)) []byte {
		a := *shards[1]
		a.Runs = slices.Clone(a.Runs)
		r := &a.Runs[shared]
		r.Vec = slices.Clone(r.Vec)
		edit(r)
		return encode(&a)
	}
	f.Add(s0, contradict(func(r *RunRecord) {
		if len(r.Vec) > 0 {
			r.Vec[0] ^= 1
		} else {
			r.Scalar ^= 1
		}
	}))
	f.Add(s0, contradict(func(r *RunRecord) { r.Err = "contradicting error" }))

	f.Fuzz(func(t *testing.T, b0, b1 []byte) {
		arts := make([]*Artifact, 2)
		for i, b := range [][]byte{b0, b1} {
			a, err := ReadArtifact(bytes.NewReader(b))
			if err != nil {
				return
			}
			a.Shard = exec.Shard{Index: i, Count: 2}
			arts[i] = a
		}
		// The expected union, keyed as the artifacts key their records and
		// compared by encoding, independently of the fold under test.
		runs := map[string][]byte{}
		agree := true
		for _, a := range arts {
			for _, r := range a.Runs {
				enc, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if prev, ok := runs[r.Key]; ok && !bytes.Equal(prev, enc) {
					agree = false
				}
				runs[r.Key] = enc
			}
		}
		want := arts[0].Check() == nil && arts[1].Check() == nil &&
			slices.Equal(arts[0].Command, arts[1].Command) && agree
		err := ValidateShardSet(arts)
		if (err == nil) != want {
			t.Fatalf("ValidateShardSet = %v, want accepted=%v", err, want)
		}
		if err != nil {
			return
		}
		c := NewCache()
		if err := c.Merge(arts...); err != nil {
			t.Fatalf("Merge refused a validated set: %v", err)
		}
		got := c.Export(exec.Shard{}, nil)
		if len(got.Runs) != len(runs) {
			t.Fatalf("merge exported %d runs, the union holds %d", len(got.Runs), len(runs))
		}
		for _, r := range got.Runs {
			// Encoding drops an empty vector either way, so a record's
			// bits are its encoding.
			enc, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, runs[r.Key]) {
				t.Fatalf("merge exported run %s, the union holds %s", enc, runs[r.Key])
			}
		}
	})
}
