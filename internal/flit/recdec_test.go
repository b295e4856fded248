package flit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
)

// decoderFixture is a cache holding every shape a run record can take: scalar and vector results, NaN payloads of both signs, ±Inf, an
// empty vector, a run error whose text needs escaping, the segfault
// identity bare and wrapped, and keys holding the characters KeyEscape and
// encoding/json escape ('|' as %7C, NUL as %00 and as \u0000, '<', '&').
func decoderFixture() *Cache {
	c := NewCache()
	runs := map[string]runVal{
		"scalar":            {res: ScalarResult(1.5)},
		"nan":               {res: ScalarResult(math.NaN())},
		"neg-nan-payload":   {res: ScalarResult(math.Float64frombits(0xfff0000000000123))},
		"vec-inf":           {res: VecResult([]float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)})},
		"empty-vec":         {res: VecResult([]float64{})},
		"err":               {err: errors.New("flit: test \"T\" chunk at 3: <bad> & tab\there\x00 é")},
		"segfault":          {err: link.ErrSegfault},
		"wrapped-segfault":  {err: fmt.Errorf("flit: test T chunk at 0: %w", link.ErrSegfault)},
		"p%7Cq=a%00b|-O2|":  {res: ScalarResult(-2)},
		"nul\x00key<&>é":    {res: VecResult([]float64{3})},
		"slash/back\\quote": {res: ScalarResult(math.SmallestNonzeroFloat64)},
	}
	for k, v := range runs {
		c.runs.Seed(k, v, nil)
	}
	return c
}

// fixtureArtifact is the fixture exported and written as a sharded
// artifact with a command that needs escaping.
func fixtureArtifact(tb testing.TB) []byte {
	a := decoderFixture().Export(exec.Shard{Index: 1, Count: 3},
		[]string{"bisect", "-comp", "g++ -O3 \"x\"", "-test", "Ex<05>"})
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// testArtifact renders a compact artifact around the given runs list.
func testArtifact(runs string) string {
	return fmt.Sprintf(`{"version":%d,"engine":%q,"shard":{"index":0,"count":1},"runs":[%s]}`,
		ArtifactVersion, EngineVersion, runs)
}

// declineCases is one input per decline rule of the record decoder, with
// whether encoding/json itself accepts it.
var declineCases = []struct {
	name   string
	data   string
	jsonOK bool
}{
	{"case-variant name", testArtifact(`{"Key":"k","scalar":1}`), true},
	{"unknown field", testArtifact(`{"key":"k","extra":1}`), true},
	{"unknown header field", strings.Replace(testArtifact(``), `"runs"`, `"created":7,"runs"`, 1), true},
	{"escaped field name", testArtifact(`{"\u006bey":"k"}`), true},
	{"duplicate field", testArtifact(`{"key":"k","scalar":1,"scalar":2}`), true},
	{"duplicate header field", strings.Replace(testArtifact(``), `"runs"`, `"version":1,"runs"`, 1), true},
	{"null slice", strings.Replace(testArtifact(``), `"runs":[]`, `"runs":null`, 1), true},
	{"null string", testArtifact(`{"key":null}`), true},
	{"exponent", strings.Replace(testArtifact(``), `"version":1`, `"version":1e2`, 1), false},
	{"fraction", testArtifact(`{"key":"k","scalar":1.0}`), false},
	{"leading zero", testArtifact(`{"key":"k","scalar":01}`), false},
	{"negative uint64", testArtifact(`{"key":"k","scalar":-1}`), false},
	{"uint64 overflow", testArtifact(`{"key":"k","scalar":18446744073709551616}`), false},
	{"int overflow", strings.Replace(testArtifact(``), `"version":1`, `"version":9223372036854775808`, 1), false},
	{"space after minus", strings.Replace(testArtifact(``), `"index":0`, `"index":- 0`, 1), false},
	{"number as bool", testArtifact(`{"key":"k","is_vec":1}`), false},
	{"string as int", strings.Replace(testArtifact(``), `"version":1`, `"version":"1"`, 1), false},
	{"control byte in string", testArtifact("{\"key\":\"a\nb\"}"), false},
	{"surrogate pair", testArtifact(`{"key":"\ud83d\ude00"}`), true},
	{"lone surrogate", testArtifact(`{"key":"\udc00"}`), true},
	{"invalid UTF-8", testArtifact("{\"key\":\"a\xffb\"}"), true},
	{"bad escape", testArtifact(`{"key":"\x"}`), false},
	{"trailing object", testArtifact(``) + `{}`, false},
	{"trailing garbage", testArtifact(``) + `x`, false},
	{"trailing comma", testArtifact(`{"key":"k"},`), false},
	{"truncated", testArtifact(``)[:40], false},
	{"empty input", ``, false},
	{"top-level array", `[]`, false},
}

// readArtifactStream is ReadArtifact as it read before the record
// decoder: encoding/json straight off the stream, then the trailing-data
// check. The decline table holds ReadArtifact to its value and error text.
func readArtifactStream(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("flit: reading artifact: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("flit: reading artifact: trailing data after the JSON object")
	}
	return &a, nil
}

// sameOutcome fails t unless two artifact reads agree on the value, or on
// the error text.
func sameOutcome(t *testing.T, data []byte, got *Artifact, gotErr error, want *Artifact, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("error %v, want %v, for %q", gotErr, wantErr, data)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("error %q, want %q", gotErr, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded %+v, want %+v, for %q", got, want, data)
	}
}

// TestRecordDecoderDeclines: every decline rule makes the fast path
// decline, and ReadArtifact then returns exactly what encoding/json off
// the stream returns — the same value, or the same error text.
func TestRecordDecoderDeclines(t *testing.T) {
	for _, tc := range declineCases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.data)
			if _, ok := decodeFast(data, (*recDecoder).artifact); ok {
				t.Fatalf("fast path accepted %q", data)
			}
			want, wantErr := readArtifactStream(bytes.NewReader(data))
			if (wantErr == nil) != tc.jsonOK {
				t.Fatalf("encoding/json error %v; the case expects jsonOK=%v", wantErr, tc.jsonOK)
			}
			got, gotErr := ReadArtifact(bytes.NewReader(data))
			sameOutcome(t, data, got, gotErr, want, wantErr)
		})
	}
}

// TestRecordDecoderDeclinesStoreRecords: a store payload the fast path
// declines decodes exactly as json.Unmarshal decodes it.
func TestRecordDecoderDeclinesStoreRecords(t *testing.T) {
	for _, data := range []string{
		`{"Key":"k","scalar":1}`, `{"key":"k","extra":1}`, `{"key":"k","key":"j"}`,
		`{"key":null}`, `{"key":"k","scalar":-1}`, `{"key":"k","scalar":1e2}`,
		`{"key":"k","cost":18446744073709551616}`, `{"key":"\ud83d\ude00"}`,
		"{\"key\":\"\xff\"}", `{"key":"k"}{}`, `{"key":"k","cost":1} x`,
	} {
		if _, ok := decodeFast([]byte(data), (*recDecoder).runRecord); ok {
			t.Errorf("run record fast path accepted %q", data)
		}
		sameRecord(t, []byte(data), (*recDecoder).runRecord)
	}
}

// sameRecord fails t unless unmarshalRecord agrees with json.Unmarshal on
// data, value or error text.
func sameRecord[T any](t *testing.T, data []byte, read func(*recDecoder, *T) bool) {
	t.Helper()
	got, gotErr := unmarshalRecord(data, read)
	var want T
	wantErr := json.Unmarshal(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v (%v), json.Unmarshal %+v (%v)", data, got, gotErr, want, wantErr)
	}
}

// FuzzRecordDecodeMatchesJSON is the record decoder's contract: whatever
// the bytes, if the fast path accepts them as an artifact or a RunRecord,
// encoding/json accepts them too and decodes a DeepEqual value; and
// ReadArtifact always agrees with encoding/json off the stream. Among the
// seeds are a cost record and an artifact with a "costs" list, as stores
// and artifacts written before runtimes were derived from the plan hold.
func FuzzRecordDecodeMatchesJSON(f *testing.F) {
	f.Add(fixtureArtifact(f))
	for _, r := range decoderFixture().Export(exec.Shard{}, nil).Runs {
		data, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"key":"k","cost":4612811918334230528}`))
	f.Add([]byte(` {"scalar":4609434218613702656,"segfault":true,"key":"k","err":"e"} `))
	f.Add([]byte(`{"cost":0,"key":"<\u0000"}`))
	f.Add([]byte(fmt.Sprintf(`{"costs":[],"runs":[{"is_vec":true,"vec":[],"key":"v"}],"shard":{"count":2,"index":1},`+
		`"created_unix":-5,"command":[],"engine":%q,"version":%d}`, EngineVersion, ArtifactVersion)))
	for _, tc := range declineCases {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readArtifactStream(bytes.NewReader(data))
		if a, ok := decodeFast(data, (*recDecoder).artifact); ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted an artifact encoding/json rejects (%v): %q", wantErr, data)
			}
			if !reflect.DeepEqual(&a, want) {
				t.Fatalf("fast path decoded %+v, encoding/json %+v, from %q", a, want, data)
			}
		}
		got, gotErr := ReadArtifact(bytes.NewReader(data))
		sameOutcome(t, data, got, gotErr, want, wantErr)
		sameRecord(t, data, (*recDecoder).runRecord)
	})
}

// recordingStore is a store.Store that keeps every payload put.
type recordingStore struct {
	mu   sync.Mutex
	puts map[string][]byte
}

func (s *recordingStore) Get(string) ([]byte, bool) { return nil, false }

func (s *recordingStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts[key] = bytes.Clone(data)
	return nil
}

// TestWrittenRecordsTakeTheFastPath pins that the fast path is the one
// reads actually take: every artifact WriteJSON writes and every payload
// the store write-through puts decodes without the encoding/json fallback.
// A silent fallback would pass every identity test and lose the speed.
func TestWrittenRecordsTakeTheFastPath(t *testing.T) {
	data := fixtureArtifact(t)
	a, ok := decodeFast(data, (*recDecoder).artifact)
	if !ok {
		t.Fatalf("fixture artifact fell back to encoding/json:\n%s", data)
	}
	want, err := decodeArtifactJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&a, want) {
		t.Fatalf("fast path decoded %+v, encoding/json %+v", a, want)
	}
	if len(a.Runs) != 11 {
		t.Fatalf("fixture artifact decoded to %d runs", len(a.Runs))
	}

	// An empty export, and the artifact of a real matrix run.
	var buf bytes.Buffer
	if err := NewCache().Export(exec.Shard{}, nil).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeFast(buf.Bytes(), (*recDecoder).artifact); !ok {
		t.Fatalf("empty artifact fell back to encoding/json:\n%s", buf.Bytes())
	}
	st := &recordingStore{puts: map[string][]byte{}}
	s := newSuite()
	s.Cache = NewCache()
	s.Cache.SetStore(st)
	if _, err := s.RunMatrix(comp.Matrix()[:12]); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := s.Cache.Export(exec.Shard{}, []string{"run"}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeFast(buf.Bytes(), (*recDecoder).artifact); !ok {
		t.Fatal("matrix artifact fell back to encoding/json")
	}

	// Every store payload: the matrix run's, and the fixture's records
	// written through the same path.
	fix := decoderFixture()
	fix.SetStore(st)
	fix.runs.Each(func(key string, v runVal, _ error) { fix.storePutRun(key, v) })
	var runs int
	for key, data := range st.puts {
		if !strings.HasPrefix(key, storeRunPrefix) {
			t.Errorf("store write outside the run prefix: %q", key)
			continue
		}
		runs++
		if _, ok := decodeFast(data, (*recDecoder).runRecord); !ok {
			t.Errorf("run payload fell back to encoding/json: %s", data)
		}
		sameRecord(t, data, (*recDecoder).runRecord)
	}
	if runs < 11 {
		t.Fatalf("store saw %d run payloads, want the fixture's and the matrix's", runs)
	}
}

// TestStampedArtifactStillWorks: artifacts written by earlier builds
// carry a field this one no longer has: a "created_unix" stamp (before
// artifacts lost their timestamp) or a "costs" list of cost records
// (before runtimes were derived from the plan). Such a file takes the
// encoding/json fallback, which skips the field, and then reads, checks,
// merges, warm-starts and diffs exactly as the same artifact without it.
func TestStampedArtifactStillWorks(t *testing.T) {
	command := []string{"run", "-test", "Example05"}
	var buf bytes.Buffer
	if err := decoderFixture().Export(exec.Shard{}, command).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	plain := bytes.Clone(buf.Bytes())
	want, err := decodeArtifactJSON(plain)
	if err != nil {
		t.Fatal(err)
	}
	stamped := bytes.Replace(plain, []byte("\n \"shard\":"), []byte("\n \"created_unix\": 1792407327,\n \"shard\":"), 1)
	if bytes.Equal(stamped, plain) {
		t.Fatalf("no shard field to stamp before:\n%s", plain)
	}
	// The costs list as the earlier writer encoded it: the same indented
	// encoder, after the runs, cost bits keyed like runs.
	type costRecord struct {
		Key  string `json:"key"`
		Cost uint64 `json:"cost"`
	}
	buf.Reset()
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		*Artifact
		Costs []costRecord `json:"costs"`
	}{want, []costRecord{{"nul\x00key<&>é", math.Float64bits(math.Inf(1))}, {"scalar", math.Float64bits(2.5)}, {"zero", 0}}}); err != nil {
		t.Fatal(err)
	}
	costed := buf.Bytes()
	if !bytes.HasPrefix(costed, plain[:len(plain)-len("\n}\n")]) || !bytes.Contains(costed, []byte("\n \"costs\": [\n")) {
		t.Fatalf("costed artifact is not the plain one with a costs list:\n%s", costed)
	}
	for name, old := range map[string][]byte{"created_unix": stamped, "costs": costed} {
		t.Run(name, func(t *testing.T) {
			if _, ok := decodeFast(old, (*recDecoder).artifact); ok {
				t.Fatalf("fast path accepted a %s field the artifact no longer has", name)
			}
			a, err := ReadArtifact(bytes.NewReader(old))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("decoded to %+v, want %+v", a, want)
			}
			if err := a.Check(); err != nil {
				t.Fatal(err)
			}
			merged, warm := NewCache(), NewCache()
			if err := merged.Merge(a); err != nil {
				t.Fatal(err)
			}
			if err := warm.WarmStart(false, a); err != nil {
				t.Fatal(err)
			}
			for name, c := range map[string]*Cache{"merged": merged, "warm-started": warm} {
				var out bytes.Buffer
				if err := c.Export(exec.Shard{}, command).WriteJSON(&out); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), plain) {
					t.Errorf("%s cache exports\n%s\nwant\n%s", name, out.Bytes(), plain)
				}
			}
			// Nothing ran, so the whole baseline reads as dropped.
			if rep := warm.Delta(command); rep == nil || len(rep.Dropped) != len(a.Runs) || len(rep.New)+len(rep.Changed) != 0 {
				t.Errorf("warm-started cache reports delta %+v", rep)
			}
			for _, sets := range [][2]*Artifact{{a, want}, {want, a}} {
				rep, err := DiffArtifacts(sets[:1], sets[1:])
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Empty() || rep.Unchanged != len(a.Runs) {
					t.Errorf("delta against the plain artifact: %s", rep.Summary())
				}
			}
		})
	}
}
