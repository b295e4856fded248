package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/flit"
)

// exportAt runs command on a fresh -j engine and returns its unsharded
// artifact, encoded, together with the artifact itself.
func exportAt(t *testing.T, j int, command []string) ([]byte, *flit.Artifact) {
	t.Helper()
	eng := NewEngine(j)
	if err := RunCommand(eng, command, io.Discard); err != nil {
		t.Fatalf("-j %d %q: %v", j, command, err)
	}
	art := eng.ExportArtifact(command)
	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), art
}

// TestArtifactsEqualAtEveryJ: an artifact records exactly the evaluations
// a command's -j 1 run makes, so the file a command exports is the same
// bytes at every -j, run after run — nothing a parallel run happened to
// evaluate besides reaches it. A -j 8 re-run warm-started from the -j 1
// artifact then reports an empty delta.
func TestArtifactsEqualAtEveryJ(t *testing.T) {
	for _, args := range [][]string{
		{"experiments", "laghos-nan"},
		{"experiments", "table2"},
		{"bisect", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma"},
	} {
		command, _, err := ParseCommand(args)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.Join(command, " ")
		want, art := exportAt(t, 1, command)
		for _, j := range []int{2, 8} {
			for run := 1; run <= 3; run++ {
				if got, _ := exportAt(t, j, command); !bytes.Equal(got, want) {
					t.Errorf("%s: -j %d artifact (run %d, %d bytes) differs from -j 1 (%d bytes)",
						name, j, run, len(got), len(want))
				}
			}
		}

		warm := NewEngine(8)
		if err := warm.WarmStart(art); err != nil {
			t.Fatal(err)
		}
		if err := RunCommand(warm, command, io.Discard); err != nil {
			t.Fatalf("%s: warm -j 8 re-run: %v", name, err)
		}
		if rep := warm.Cache().Delta(command); !rep.Empty() {
			t.Errorf("%s: -j 8 re-run warm-started from -j 1 reports a delta: %s", name, rep.Summary())
		}
	}
}
