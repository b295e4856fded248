package experiments

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestParseCommandCanonicalForms pins the canonical form of each command:
// the []string artifacts record and campaign IDs digest. Parsing a
// canonical command gives it back unchanged, so a replay runs exactly what
// was recorded.
func TestParseCommandCanonicalForms(t *testing.T) {
	all := []string{"experiments", "table1", "figure4", "figure5", "figure6", "table3",
		"findings", "motivation", "table4", "laghos-nan", "table2", "table5", "mpi"}
	for _, tc := range []struct {
		args, want []string
	}{
		{[]string{"run"}, []string{"run"}},
		{[]string{"run", "-test", "Example05"}, []string{"run", "-test", "Example05"}},
		{[]string{"bisect", "-test", "Example13", "-comp", "  g++   -O3 -mavx2  -mfma "},
			[]string{"bisect", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma", "-k", "0"}},
		{[]string{"bisect", "-k", "2", "-comp", "clang++ -O1", "-test", "Example08"},
			[]string{"bisect", "-test", "Example08", "-comp", "clang++ -O1", "-k", "2"}},
		{[]string{"experiments"}, all},
		{[]string{"experiments", "all"}, all},
		{[]string{"experiments", "sweep", "table5-sample", "table4"},
			[]string{"experiments", "sweep", "table5-sample", "table4"}},
	} {
		got, _, err := ParseCommand(tc.args)
		if err != nil {
			t.Errorf("ParseCommand(%q): %v", tc.args, err)
			continue
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("ParseCommand(%q) = %q, want %q", tc.args, got, tc.want)
		}
		again, _, err := ParseCommand(got)
		if err != nil || !slices.Equal(again, got) {
			t.Errorf("ParseCommand(%q) = %q, %v: canonical form is not a fixed point", got, again, err)
		}
	}
}

// TestParseCommandRejects: every malformed command is refused with an
// error naming what is wrong.
func TestParseCommandRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "no command given"},
		{[]string{"merge", "a.json"}, `unknown command "merge"`},
		{[]string{"run", "-test", "Example20"}, `unknown test "Example20"`},
		{[]string{"run", "stray"}, `run takes no positional arguments (got ["stray"])`},
		{[]string{"run", "-comp", "g++ -O3"}, "flag provided but not defined: -comp"},
		{[]string{"bisect", "-test", "Example13"}, "bisect requires -test and -comp"},
		{[]string{"bisect", "-test", "Example13", "-comp", "g++"}, `compilation "g++"`},
		{[]string{"bisect", "-test", "Example99", "-comp", "g++ -O3"}, `unknown test "Example99"`},
		{[]string{"bisect", "-test", "Example13", "-comp", "g++ -O3", "-k", "x"}, "invalid value"},
		{[]string{"experiments", "table3", "tabel4"}, `unknown experiment "tabel4"`},
		{[]string{"experiments", "all", "table1"}, `unknown experiment "all"`},
		{[]string{"experiments", "table1", "all"}, `unknown experiment "all"`},
	} {
		if got, _, err := ParseCommand(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseCommand(%q) = %q, %v; want an error containing %q", tc.args, got, err, tc.want)
		}
	}
	if err := RunCommand(NewEngine(1), []string{"experiments", "table3", "tabel4"}, io.Discard); err == nil {
		t.Error("RunCommand replayed a command its grammar rejects")
	}
}

// TestDeclareCommandSharesFlagSet: the grammar registers on the caller's
// FlagSet beside the caller's own flags, and yields the same canonical
// command ParseCommand does.
func TestDeclareCommandSharesFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("bisect", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	j := fs.Int("j", 0, "")
	canonical, err := DeclareCommand("bisect", fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Parse([]string{"-j", "4", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma"}); err != nil {
		t.Fatal(err)
	}
	got, _, err := canonical()
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := ParseCommand([]string{"bisect", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma"})
	if *j != 4 || !slices.Equal(got, want) {
		t.Errorf("-j %d, command %q; want -j 4, command %q", *j, got, want)
	}
	if _, err := DeclareCommand("merge", flag.NewFlagSet("merge", flag.ContinueOnError)); err == nil {
		t.Error(`DeclareCommand("merge") declared a command with no grammar`)
	}
}
