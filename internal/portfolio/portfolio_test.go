package portfolio

import (
	"reflect"
	"testing"
)

func TestExpandOrderDeterministic(t *testing.T) {
	m := Matrix{
		Seeds:    []int64{1, 2},
		Efforts:  []Effort{{Name: "fast", MovesPerCell: 4}, {}},
		Backends: []string{"", "lagrange"},
	}
	got, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	}
	// Nesting order: efforts (outer) × backends × seeds (inner, fastest).
	want := []Member{
		{Index: 0, Seed: 1, Effort: Effort{Name: "fast", MovesPerCell: 4}},
		{Index: 1, Seed: 2, Effort: Effort{Name: "fast", MovesPerCell: 4}},
		{Index: 2, Seed: 1, Effort: Effort{Name: "fast", MovesPerCell: 4}, Backend: "lagrange"},
		{Index: 3, Seed: 2, Effort: Effort{Name: "fast", MovesPerCell: 4}, Backend: "lagrange"},
		{Index: 4, Seed: 1},
		{Index: 5, Seed: 2},
		{Index: 6, Seed: 1, Backend: "lagrange"},
		{Index: 7, Seed: 2, Backend: "lagrange"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expansion order changed:\n got %+v\nwant %+v", got, want)
	}
	again, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatal("expansion is not deterministic")
	}
}

func TestExpandEmptyAxesInherit(t *testing.T) {
	m := Matrix{Seeds: []int64{7}}
	got, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seed != 7 || got[0].Backend != "" || !got[0].Effort.zero() {
		t.Fatalf("single-axis expansion = %+v", got)
	}
}

// TestExpandResolvesPreset: a named preset expands to the same members as
// its concrete matrix.
func TestExpandResolvesPreset(t *testing.T) {
	cases := []struct {
		preset string
		m      Matrix
	}{
		{"seeds4", Matrix{Seeds: []int64{1, 2, 3, 4}}},
		{"seeds8", Matrix{Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}}},
		{"paper8", Matrix{
			Seeds: []int64{1, 2},
			Efforts: []Effort{
				{Name: "fast", MovesPerCell: 6, MaxTemps: 80},
				{Name: "deep", MovesPerCell: 12, MaxTemps: 180},
			},
			Backends: []string{"ordered", "lagrange"},
		}},
	}
	for _, tc := range cases {
		got, err := (&Matrix{Preset: tc.preset}).Expand()
		if err != nil {
			t.Fatalf("%s: %v", tc.preset, err)
		}
		want, err := tc.m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s expands to %+v, want %+v", tc.preset, got, want)
		}
	}
}

func TestExpandRejections(t *testing.T) {
	cases := []struct {
		name string
		m    Matrix
	}{
		{"empty", Matrix{}},
		{"unknown preset", Matrix{Preset: "nope"}},
		{"preset plus axes", Matrix{Preset: "paper8", Seeds: []int64{1}}},
		{"negative seed", Matrix{Seeds: []int64{-1}}},
		{"bad backend", Matrix{Backends: []string{"warp"}}},
		{"negative effort", Matrix{Efforts: []Effort{{MaxTemps: -4}}}},
		{"too many members", Matrix{Seeds: make([]int64, MaxMembers+1)}},
	}
	for _, tc := range cases {
		if _, err := tc.m.Expand(); err == nil {
			t.Errorf("%s: expansion accepted, want error", tc.name)
		}
	}
	// Size counts without validating.
	big := Matrix{Seeds: []int64{1, 2, 3}, Backends: []string{"", "negotiated"}}
	if big.Size() != 6 {
		t.Errorf("Size = %d, want 6", big.Size())
	}
}

func TestScoreOrder(t *testing.T) {
	routed := Score{WCDPs: 100, Cost: 10}
	cases := []struct {
		name string
		a, b Score
		less bool
	}{
		{"routed beats unrouted", routed, Score{RouteFailed: true, Unrouted: 1, WCDPs: 1, Cost: 1}, true},
		{"fewer unrouted", Score{RouteFailed: true, Unrouted: 2}, Score{RouteFailed: true, Unrouted: 5}, true},
		{"shorter critical path", Score{WCDPs: 90, Cost: 99}, routed, true},
		{"lower cost on equal WCD", Score{WCDPs: 100, Cost: 9}, routed, true},
		{"equal is not less", routed, routed, false},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.less {
			t.Errorf("%s: Less = %v, want %v", tc.name, got, tc.less)
		}
	}
}

func TestChampionTieBreak(t *testing.T) {
	s := func(wcd float64) *Score { return &Score{WCDPs: wcd, Cost: 1} }
	if got := Champion([]*Score{nil, nil}); got != -1 {
		t.Errorf("no finished members: champion = %d, want -1", got)
	}
	// Exact tie: the lower index wins.
	if got := Champion([]*Score{s(50), s(50), s(50)}); got != 0 {
		t.Errorf("tie champion = %d, want 0", got)
	}
	// Strictly better later member wins; nil members are skipped.
	if got := Champion([]*Score{s(50), nil, s(40)}); got != 2 {
		t.Errorf("champion = %d, want 2", got)
	}
	// An unrouted member never beats a routed one.
	bad := &Score{RouteFailed: true, Unrouted: 3, WCDPs: 1}
	if got := Champion([]*Score{bad, s(900)}); got != 1 {
		t.Errorf("champion = %d, want the routed member", got)
	}
}

func TestMemberDesc(t *testing.T) {
	cases := []struct {
		m    Member
		want string
	}{
		{Member{}, "base"},
		{Member{Seed: 3}, "seed=3"},
		{Member{Seed: 3, Backend: "lagrange"}, "seed=3 backend=lagrange"},
		{Member{Effort: Effort{Name: "deep"}}, "effort=deep"},
		{Member{Effort: Effort{MovesPerCell: 9, MaxTemps: 120}}, "effort=mpc9/t120"},
	}
	for _, tc := range cases {
		if got := tc.m.Desc(); got != tc.want {
			t.Errorf("Desc(%+v) = %q, want %q", tc.m, got, tc.want)
		}
	}
}
