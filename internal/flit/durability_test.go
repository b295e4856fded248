package flit

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadArtifactRejectsTrailingData: an artifact file is exactly one
// JSON object. Concatenated artifacts or garbage after the closing brace —
// the classic torn-rewrite shape, new content followed by the tail of the
// old — must be rejected, not silently half-read. Trailing whitespace
// (a final newline) stays legal.
func TestReadArtifactRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := art([]string{"run"}, scalarRec("k", 1)).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	for name, tail := range map[string]string{
		"second object": string(valid),
		"brace pair":    "{}",
		"garbage":       "tail of the previous file generation",
		"null":          "null",
	} {
		t.Run(name, func(t *testing.T) {
			data := append(append([]byte{}, valid...), tail...)
			if _, err := ReadArtifact(bytes.NewReader(data)); err == nil {
				t.Fatal("artifact with trailing data accepted")
			} else if !strings.Contains(err.Error(), "trailing data") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		})
	}
	for name, tail := range map[string]string{
		"nothing":    "",
		"newline":    "\n",
		"whitespace": " \t\n ",
	} {
		t.Run("ok "+name, func(t *testing.T) {
			data := append(append([]byte{}, valid...), tail...)
			if _, err := ReadArtifact(bytes.NewReader(data)); err != nil {
				t.Fatalf("artifact with %s rejected: %v", name, err)
			}
		})
	}
}

// TestWriteArtifactFileAtomic: WriteArtifactFile goes through the atomic
// temp-file + rename path — a failed or interrupted write must never leave
// a half-written artifact at the destination, an existing artifact is
// replaced wholesale, and no temp debris survives a successful write.
func TestWriteArtifactFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "art.json")

	first := art([]string{"run"}, scalarRec("k", 1))
	if err := WriteArtifactFile(first, path); err != nil {
		t.Fatal(err)
	}
	second := art([]string{"run"}, scalarRec("k", 2), scalarRec("k2", 3))
	if err := WriteArtifactFile(second, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 {
		t.Fatalf("overwrite read back %d runs, want 2", len(got.Runs))
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "art.json" {
			t.Fatalf("write left debris %q in the directory", e.Name())
		}
	}

	// A write into a nonexistent directory fails cleanly and creates
	// nothing at the destination path.
	missing := filepath.Join(dir, "no", "such", "dir", "a.json")
	if err := WriteArtifactFile(first, missing); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("failed write left a file: %v", err)
	}
}

// TestWriteDeltaReportFileAtomic: a -delta-out report is written through
// the same atomic path as artifacts — a rewrite replaces the old report
// whole (a reader of the old file still sees all of it), no temp file is
// left behind, and a write into a missing directory fails and creates
// nothing.
func TestWriteDeltaReportFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "delta.json")
	long, err := DiffArtifacts([]*Artifact{art([]string{"run"})},
		[]*Artifact{art([]string{"run"}, scalarRec("a", 1), scalarRec("b", 2), scalarRec("c", 3))})
	if err != nil {
		t.Fatal(err)
	}
	short, err := DiffArtifacts([]*Artifact{art(nil)}, []*Artifact{art(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDeltaReportFile(long, path); err != nil {
		t.Fatal(err)
	}
	// A second name for the first report's file: a write that truncated
	// the file in place, instead of renaming a new one over the path,
	// would change what it reads too.
	held := filepath.Join(t.TempDir(), "held.json")
	if err := os.Link(path, held); err != nil {
		t.Skipf("no hard links here: %v", err)
	}
	if err := WriteDeltaReportFile(short, path); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]*DeltaReport{path: short, held: long} {
		var buf bytes.Buffer
		if err := want.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%s holds %q after the rewrite, want a whole report:\n%s", name, got, buf.Bytes())
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "delta.json" {
			t.Fatalf("write left debris %q in the directory", e.Name())
		}
	}
	missing := filepath.Join(dir, "no", "such", "dir", "delta.json")
	if err := WriteDeltaReportFile(short, missing); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Dir(missing)); !os.IsNotExist(err) {
		t.Fatalf("failed write created something: %v", err)
	}
}

// TestCheckRejectsInconsistentRunRecords: a run record claiming to be a
// scalar while carrying a vector payload (or vice versa) describes two
// different results at once; Check must reject the artifact rather than
// let seeding pick one interpretation.
func TestCheckRejectsInconsistentRunRecords(t *testing.T) {
	cases := map[string]RunRecord{
		"scalar with vec": {Key: "k", IsVec: false, Vec: []uint64{1, 2}},
		"vec with scalar": {Key: "k", IsVec: true, Scalar: 42},
	}
	for name, rec := range cases {
		t.Run(name, func(t *testing.T) {
			a := art([]string{"run"}, rec)
			if err := a.Check(); err == nil {
				t.Fatal("inconsistent run record passed Check")
			}
			if err := NewCache().WarmStart(false, a); err == nil {
				t.Fatal("inconsistent run record seeded")
			}
		})
	}
	// The legal shapes still pass: a scalar record, a vec record, and a vec
	// record whose payload is empty (a zero-length result vector).
	for name, rec := range map[string]RunRecord{
		"scalar":    scalarRec("k", 1),
		"vec":       {Key: "k", IsVec: true, Vec: []uint64{4614256656552045848}},
		"empty vec": {Key: "k", IsVec: true},
	} {
		t.Run("ok "+name, func(t *testing.T) {
			if err := art([]string{"run"}, rec).Check(); err != nil {
				t.Fatalf("legal %s record rejected: %v", name, err)
			}
		})
	}
}
