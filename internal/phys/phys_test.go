package phys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegionBasics(t *testing.T) {
	r := MakeRegion(0x1000, 0x2000)
	if r.Size() != 0x2000 {
		t.Fatalf("size = %#x, want 0x2000", r.Size())
	}
	if r.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", r.Pages())
	}
	if !r.Contains(0x1000) || !r.Contains(0x2fff) {
		t.Fatal("expected boundary addresses contained")
	}
	if r.Contains(0x3000) || r.Contains(0xfff) {
		t.Fatal("expected exterior addresses not contained")
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestRegionValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		r    Region
	}{
		{"empty", Region{}},
		{"inverted", Region{Start: 0x2000, End: 0x1000}},
		{"unaligned start", Region{Start: 0x1001, End: 0x3000}},
		{"unaligned end", Region{Start: 0x1000, End: 0x2fff}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.r.Validate(); err == nil {
				t.Fatalf("Validate(%v) = nil, want error", tc.r)
			}
		})
	}
}

func TestRegionOverlapIntersect(t *testing.T) {
	a := MakeRegion(0x1000, 0x3000)
	b := MakeRegion(0x3000, 0x3000)
	if got := a.Intersect(b); got.Size() != 0x1000 || got.Start != 0x3000 {
		t.Fatalf("intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Fatal("expected overlap")
	}
	c := MakeRegion(0x4000, 0x1000)
	if a.Overlaps(c) {
		t.Fatal("adjacent regions must not overlap")
	}
	if got := a.Intersect(c); !got.Empty() {
		t.Fatalf("intersect of disjoint = %v, want empty", got)
	}
}

func TestRegionSubtract(t *testing.T) {
	r := MakeRegion(0x1000, 0x4000) // [0x1000,0x5000)
	tests := []struct {
		name string
		cut  Region
		want []Region
	}{
		{"middle", MakeRegion(0x2000, 0x1000), []Region{{0x1000, 0x2000}, {0x3000, 0x5000}}},
		{"prefix", MakeRegion(0x1000, 0x1000), []Region{{0x2000, 0x5000}}},
		{"suffix", MakeRegion(0x4000, 0x1000), []Region{{0x1000, 0x4000}}},
		{"all", r, nil},
		{"disjoint", MakeRegion(0x8000, 0x1000), []Region{r}},
		{"superset", MakeRegion(0, 0x10000), nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := r.Subtract(tc.cut)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestNormalizeRegions(t *testing.T) {
	in := []Region{
		MakeRegion(0x3000, 0x1000),
		MakeRegion(0x1000, 0x1000),
		MakeRegion(0x2000, 0x1000), // adjacent to both: all merge
		{},                         // empty dropped
		MakeRegion(0x8000, 0x2000),
		MakeRegion(0x9000, 0x2000), // overlaps previous
	}
	got := NormalizeRegions(in)
	want := []Region{{0x1000, 0x4000}, {0x8000, 0xb000}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if CoverageSize(in) != 0x3000+0x3000 {
		t.Fatalf("coverage = %#x", CoverageSize(in))
	}
}

// Property: subtracting a region and re-adding the intersection restores
// exactly the original coverage.
func TestSubtractIntersectPartition(t *testing.T) {
	f := func(s1, n1, s2, n2 uint16) bool {
		r := MakeRegion(Addr(s1)*PageSize, (uint64(n1)%64+1)*PageSize)
		cut := MakeRegion(Addr(s2)*PageSize, (uint64(n2)%64+1)*PageSize)
		parts := r.Subtract(cut)
		inter := r.Intersect(cut)
		all := append([]Region{}, parts...)
		if !inter.Empty() {
			all = append(all, inter)
		}
		return CoverageSize(all) == r.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: NormalizeRegions is idempotent and preserves coverage.
func TestNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var regs []Region
		for i := 0; i < rng.Intn(20); i++ {
			start := Addr(rng.Intn(256)) * PageSize
			regs = append(regs, MakeRegion(start, uint64(rng.Intn(16)+1)*PageSize))
		}
		n1 := NormalizeRegions(regs)
		n2 := NormalizeRegions(n1)
		if len(n1) != len(n2) {
			t.Fatalf("not idempotent: %v vs %v", n1, n2)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("not idempotent: %v vs %v", n1, n2)
			}
		}
		if CoverageSize(regs) != CoverageSize(n1) {
			t.Fatalf("coverage changed: %d vs %d", CoverageSize(regs), CoverageSize(n1))
		}
		// Normalized regions are disjoint and sorted with gaps.
		for i := 1; i < len(n1); i++ {
			if n1[i].Start <= n1[i-1].End {
				t.Fatalf("not disjoint/sorted: %v", n1)
			}
		}
	}
}

func TestPageHelpers(t *testing.T) {
	a := Addr(0x1234)
	if a.PageAlign() != 0x1000 {
		t.Fatalf("align = %v", a.PageAlign())
	}
	if a.PageAligned() {
		t.Fatal("0x1234 should not be aligned")
	}
	if Addr(0x2000).Page() != 2 {
		t.Fatal("page number wrong")
	}
}

// Subtract is region algebra the tests check region helpers against;
// the capability engine carves in place instead (cap.appendEffective).

// Subtract returns the parts of r not covered by o, in address order.
// The result has zero, one, or two regions.
func (r Region) Subtract(o Region) []Region {
	if !r.Overlaps(o) {
		if r.Empty() {
			return nil
		}
		return []Region{r}
	}
	var out []Region
	if o.Start > r.Start {
		out = append(out, Region{Start: r.Start, End: o.Start})
	}
	if o.End < r.End {
		out = append(out, Region{Start: o.End, End: r.End})
	}
	return out
}
