package exec

import (
	"testing"
)

func TestParseShard(t *testing.T) {
	tests := []struct {
		in      string
		want    Shard
		wantErr bool
	}{
		{in: "", want: Shard{}},
		{in: "0/1", want: Shard{Index: 0, Count: 1}},
		{in: "0/4", want: Shard{Index: 0, Count: 4}},
		{in: "3/4", want: Shard{Index: 3, Count: 4}},
		{in: "4/4", wantErr: true},
		{in: "-1/4", wantErr: true},
		{in: "0/0", wantErr: true},
		{in: "0", wantErr: true},
		{in: "a/b", wantErr: true},
		{in: "1/2/3", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseShard(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseShard(%q) = %v, want error", tt.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShard(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseShard(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestShardPartition: for every job index space, the shards of a count N
// partition it — every index owned by exactly one shard, and Indices agrees
// with Owns.
func TestShardPartition(t *testing.T) {
	const n = 97 // deliberately not a multiple of any tested count
	for _, count := range []int{1, 2, 3, 4, 8} {
		owners := make([]int, n)
		for i := range owners {
			owners[i] = -1
		}
		for idx := 0; idx < count; idx++ {
			s := Shard{Index: idx, Count: count}
			for _, i := range s.Indices(n) {
				if !s.Owns(i) {
					t.Fatalf("shard %s: Indices yields %d but Owns(%d) is false", s, i, i)
				}
				if owners[i] != -1 {
					t.Fatalf("index %d owned by shards %d and %d of %d", i, owners[i], idx, count)
				}
				owners[i] = idx
			}
		}
		for i, o := range owners {
			if o == -1 {
				t.Errorf("index %d of %d owned by no shard of %d", i, n, count)
			}
		}
	}
}

// TestShardZeroValueOwnsAll: the zero Shard is a valid unsharded run.
func TestShardZeroValueOwnsAll(t *testing.T) {
	var s Shard
	if err := s.Validate(); err != nil {
		t.Errorf("zero shard invalid: %v", err)
	}
	for i := 0; i < 10; i++ {
		if !s.Owns(i) {
			t.Errorf("zero shard does not own %d", i)
		}
	}
	if got := len(s.Indices(5)); got != 5 {
		t.Errorf("zero shard Indices(5) has %d entries", got)
	}
	if s.String() != "0/1" {
		t.Errorf("zero shard String = %q", s.String())
	}
}

// TestParseShardEdgeCases covers the parser's rejection surface beyond the
// happy paths: whitespace, signs, overflow, and empty components must all
// fail with an error rather than mis-assign the index space.
func TestParseShardEdgeCases(t *testing.T) {
	tests := []struct {
		in      string
		want    Shard
		wantErr bool
	}{
		{in: "0/1000000", want: Shard{Index: 0, Count: 1000000}},
		{in: "999999/1000000", want: Shard{Index: 999999, Count: 1000000}},
		// strconv.Atoi accepts a leading '+': harmless, still in range.
		{in: "+1/4", want: Shard{Index: 1, Count: 4}},
		{in: " 0/2", wantErr: true},
		{in: "0/2 ", wantErr: true},
		{in: "0/ 2", wantErr: true},
		{in: "/2", wantErr: true},
		{in: "0/", wantErr: true},
		{in: "/", wantErr: true},
		{in: "0x1/2", wantErr: true},
		{in: "1/-2", wantErr: true},
		{in: "-0/2", want: Shard{Index: 0, Count: 2}}, // -0 parses to 0: in range
		{in: "1.0/2", wantErr: true},
		{in: "99999999999999999999/2", wantErr: true}, // index overflows int64
		{in: "0/99999999999999999999", wantErr: true}, // count overflows int64
	}
	for _, tt := range tests {
		got, err := ParseShard(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseShard(%q) = %v, want error", tt.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShard(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseShard(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestShardValidateEdgeCases: Validate accepts exactly the zero value and
// well-formed coordinates; every inconsistent struct (reachable through
// JSON-decoded artifacts, not the parser) is rejected.
func TestShardValidateEdgeCases(t *testing.T) {
	valid := []Shard{{}, {0, 1}, {0, 2}, {1, 2}, {7, 8}}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", s, err)
		}
	}
	invalid := []Shard{
		{Index: 1, Count: 0},  // count zero but not the zero value
		{Index: -1, Count: 0}, // negative index
		{Index: 0, Count: -1}, // negative count
		{Index: 2, Count: 2},  // index == count
		{Index: 5, Count: 2},  // index > count
		{Index: -1, Count: 4}, // negative index, valid count
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", s)
		}
	}
}

// TestShardPartitionEdgeSpaces: tiny and empty job index spaces still
// partition exactly — a single job lands on exactly one shard of any
// count, and the empty space yields no indices for anyone.
func TestShardPartitionEdgeSpaces(t *testing.T) {
	for _, count := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1} {
			owners := 0
			for idx := 0; idx < count; idx++ {
				s := Shard{Index: idx, Count: count}
				ids := s.Indices(n)
				for _, i := range ids {
					if i < 0 || i >= n {
						t.Fatalf("shard %s: index %d outside [0,%d)", s, i, n)
					}
				}
				owners += len(ids)
				// Indices and Owns must agree even on the empty space.
				if n == 1 && (len(ids) == 1) != s.Owns(0) {
					t.Fatalf("shard %s: Indices(1)=%v disagrees with Owns(0)=%v", s, ids, s.Owns(0))
				}
			}
			if owners != n {
				t.Errorf("count=%d n=%d: %d indices owned in total", count, n, owners)
			}
		}
		// Only shard 0 of any count owns the single job.
		s0 := Shard{Index: 0, Count: count}
		if !s0.Owns(0) {
			t.Errorf("shard %s does not own job 0", s0)
		}
	}
}

func TestShardStringRoundTrip(t *testing.T) {
	for _, s := range []Shard{{0, 2}, {1, 2}, {7, 8}} {
		got, err := ParseShard(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v -> %q -> %v (%v)", s, s.String(), got, err)
		}
	}
}
