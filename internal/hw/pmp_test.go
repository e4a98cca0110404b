package hw

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// NAPOT round-trip and rejection cases over the interesting boundary
// shapes: minimum (8-byte) and huge regions, misaligned bases,
// non-power-of-two sizes.
func TestNAPOTEncodeDecode(t *testing.T) {
	roundTrip := []struct {
		name  string
		r     phys.Region
		wantV uint64
	}{
		{"min-8-bytes", phys.MakeRegion(0, 8), 0x0},
		{"min-8-at-offset", phys.MakeRegion(8, 8), 0x2},
		{"one-page-at-zero", phys.MakeRegion(0, 4096), 0x1FF},
		{"one-page", phys.MakeRegion(0x4000, 4096), 0x11FF},
		{"two-pages", phys.MakeRegion(0x8000, 8192), 0x23FF},
		{"1MiB", phys.MakeRegion(1<<20, 1<<20), 1<<18 | (1<<17 - 1)},
		{"4GiB", phys.MakeRegion(1<<32, 1<<32), 1<<30 | (1<<29 - 1)},
		{"1TiB-high", phys.MakeRegion(1<<40, 1<<40), 1<<38 | (1<<37 - 1)},
	}
	for _, tc := range roundTrip {
		t.Run(tc.name, func(t *testing.T) {
			v, err := EncodeNAPOT(tc.r)
			if err != nil {
				t.Fatalf("encode %v: %v", tc.r, err)
			}
			if v != tc.wantV {
				t.Fatalf("encode %v = %#x, want %#x", tc.r, v, tc.wantV)
			}
			back, err := DecodeNAPOT(v)
			if err != nil {
				t.Fatalf("decode %#x: %v", v, err)
			}
			if back != tc.r {
				t.Fatalf("round trip %v -> %#x -> %v", tc.r, v, back)
			}
		})
	}

	rejects := []struct {
		name string
		r    phys.Region
		want string
	}{
		{"empty", phys.Region{}, "not NAPOT"},
		{"four-bytes", phys.MakeRegion(0, 4), "minimum"}, // below the 8-byte NAPOT floor
		{"non-pow2-size", phys.MakeRegion(0, 3*4096), "not NAPOT"},
		{"misaligned-base", phys.MakeRegion(0x1000, 0x2000), "not NAPOT"},
		{"page-at-half-page", phys.MakeRegion(2048, 4096), "not NAPOT"},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := EncodeNAPOT(tc.r); err == nil {
				t.Fatalf("encode %v succeeded, want error", tc.r)
			} else if !strings.Contains(err.Error(), tc.want) && !strings.Contains(err.Error(), "minimum") {
				t.Fatalf("encode %v: unexpected error %v", tc.r, err)
			}
		})
	}

	// Decoding all-ones (the unbounded whole-address-space encoding)
	// must fail rather than fabricate a wrapped region.
	if r, err := DecodeNAPOT(^uint64(0)); err == nil {
		t.Fatalf("decode all-ones = %v, want error", r)
	}
}

// TOR pairs express arbitrary 4-byte-aligned ranges; empty and
// misaligned ranges are rejected.
func TestTOREncodeDecode(t *testing.T) {
	roundTrip := []struct {
		name   string
		r      phys.Region
		lo, hi uint64
	}{
		{"one-word", phys.MakeRegion(0, 4), 0, 1},
		{"one-page", phys.MakeRegion(0x4000, 4096), 0x1000, 0x1400},
		{"odd-pages", phys.MakeRegion(0x1000, 3*4096), 0x400, 0x1000},
		{"unaligned-to-pow2", phys.MakeRegion(2048, 4096), 512, 1536},
		{"high", phys.MakeRegion(1<<40, 1<<20), 1 << 38, 1<<38 + 1<<18},
	}
	for _, tc := range roundTrip {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi, err := EncodeTOR(tc.r)
			if err != nil {
				t.Fatalf("encode %v: %v", tc.r, err)
			}
			if lo != tc.lo || hi != tc.hi {
				t.Fatalf("encode %v = (%#x, %#x), want (%#x, %#x)", tc.r, lo, hi, tc.lo, tc.hi)
			}
			back, err := DecodeTOR(lo, hi)
			if err != nil {
				t.Fatalf("decode (%#x, %#x): %v", lo, hi, err)
			}
			if back != tc.r {
				t.Fatalf("round trip %v -> %v", tc.r, back)
			}
		})
	}
	if _, _, err := EncodeTOR(phys.Region{}); err == nil {
		t.Fatal("encoding the empty region succeeded")
	}
	if _, _, err := EncodeTOR(phys.MakeRegion(2, 8)); err == nil {
		t.Fatal("encoding a sub-word-aligned region succeeded")
	}
	if _, err := DecodeTOR(8, 8); err == nil {
		t.Fatal("decoding an empty TOR pair succeeded")
	}
	if _, err := DecodeTOR(16, 8); err == nil {
		t.Fatal("decoding an inverted TOR pair succeeded")
	}
}

// Register-file behaviour around the shapes the backends rely on:
// lowest-index-wins priority for overlapping entries, locked-entry
// protection through an emptying Replace.
func TestPMPRegisterFileEdgeCases(t *testing.T) {
	t.Run("overlap-lowest-index-wins", func(t *testing.T) {
		p := NewPMP(4)
		// Entry 1 denies a page; entry 2 allows a superset. The deny
		// must win for the overlapped page, the allow elsewhere.
		if _, err := p.Replace(1, []EPTMapping{
			{Region: phys.MakeRegion(0x2000, 0x1000), Perm: PermNone},
			{Region: phys.MakeRegion(0x0, 0x8000), Perm: PermR | PermW},
		}, nil); err != nil {
			t.Fatal(err)
		}
		if p.Check(0x2800, PermR) {
			t.Fatal("deny entry 1 did not shadow allow entry 2")
		}
		if !p.Check(0x3000, PermR) {
			t.Fatal("allow entry 2 not effective outside the shadow")
		}
		// Reversed priority: allow first, deny second — allow wins.
		q := NewPMP(4)
		if _, err := q.Replace(0, []EPTMapping{
			{Region: phys.MakeRegion(0x2000, 0x1000), Perm: PermR},
			{Region: phys.MakeRegion(0x2000, 0x1000), Perm: PermNone},
		}, nil); err != nil {
			t.Fatal(err)
		}
		if !q.Check(0x2000, PermR) {
			t.Fatal("lower-index allow lost to higher-index deny")
		}
	})

	t.Run("no-match-denies", func(t *testing.T) {
		p := NewPMP(2)
		if p.Check(0x1000, PermR) {
			t.Fatal("unprogrammed PMP allowed an access")
		}
		if got := p.Lookup(0x1000); got != PermNone {
			t.Fatalf("Lookup on empty file = %v", got)
		}
	})

	t.Run("bounds-and-locks", func(t *testing.T) {
		p := NewPMP(2)
		seg := func(start phys.Addr, perm Perm) []EPTMapping {
			return []EPTMapping{{Region: phys.MakeRegion(start, 0x1000), Perm: perm}}
		}
		if _, err := p.Replace(2, seg(0, PermR), nil); err == nil {
			t.Fatal("out-of-range program succeeded")
		}
		if _, err := p.Replace(-1, seg(0, PermR), nil); err == nil {
			t.Fatal("negative-index program succeeded")
		}
		if err := p.Lock(0); err == nil {
			t.Fatal("locked an unprogrammed entry")
		}
		if _, err := p.Replace(0, seg(0, PermNone), nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Lock(0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Replace(0, seg(0, PermR), nil); err == nil {
			t.Fatal("reprogrammed a locked entry")
		}
		if _, err := p.Replace(1, seg(0x1000, PermR), nil); err != nil {
			t.Fatal(err)
		}
		if wrote, err := p.Replace(0, nil, nil); err != nil || len(wrote) != 1 {
			t.Fatalf("emptying Replace wrote entries %v (err %v), want only entry 1 (locked survives)", wrote, err)
		}
		if p.Check(0, PermNone) != false && p.Lookup(0) != PermNone {
			t.Fatal("locked deny entry vanished")
		}
		if free := p.FreeEntries(); free != 1 {
			t.Fatalf("FreeEntries = %d, want 1", free)
		}
	})

	t.Run("generation-advances", func(t *testing.T) {
		p := NewPMP(2)
		g0 := p.Generation()
		if _, err := p.Replace(0, []EPTMapping{{Region: phys.MakeRegion(0, 0x1000), Perm: PermR}}, nil); err != nil {
			t.Fatal(err)
		}
		if p.Generation() <= g0 {
			t.Fatal("generation did not advance on program")
		}
		g1 := p.Generation()
		if _, err := p.Replace(0, nil, nil); err != nil {
			t.Fatal(err)
		}
		if p.Generation() <= g1 {
			t.Fatal("generation did not advance on clear")
		}
	})
}

// TestPMPReplaceIsOnePublish: a replacement installs one whole register
// file with one generation bump, writing only the entries that differ,
// and a rejected replacement changes nothing.
func TestPMPReplaceIsOnePublish(t *testing.T) {
	seg := func(pg, n uint64, perm Perm) EPTMapping {
		return EPTMapping{Region: phys.MakeRegion(phys.Addr(pg<<phys.PageShift), n*phys.PageSize), Perm: perm}
	}
	p := NewPMP(4)
	if _, err := p.Replace(0, []EPTMapping{{Region: phys.MakeRegion(0x100000, 0x1000), Perm: PermNone}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(0); err != nil {
		t.Fatal(err)
	}
	layouts := [2][]EPTMapping{
		{seg(4, 1, PermRX), seg(8, 8, PermRW)},
		{seg(0, 2, PermR), seg(2, 4, PermRWX), seg(20, 2, PermRW)},
	}
	// Only entries whose contents differ are written; the generation
	// moves on every Replace of a file with unlocked contents.
	for i, step := range []struct {
		segs []EPTMapping
		want []int
	}{
		{layouts[0], []int{1, 2}},
		{layouts[1], []int{1, 2, 3}},
		{layouts[1], nil},
		{[]EPTMapping{seg(0, 2, PermR), seg(2, 4, PermRX), seg(20, 2, PermRW)}, []int{2}},
		{layouts[0][:1], []int{1, 2, 3}},
	} {
		gen := p.Generation()
		wrote, err := p.Replace(1, step.segs, nil)
		if err != nil || !slices.Equal(wrote, step.want) || p.Generation() != gen+1 {
			t.Fatalf("Replace %d wrote %v (want %v), generation %d -> %d, err %v", i, wrote, step.want, gen, p.Generation(), err)
		}
	}
	if _, err := p.Replace(1, layouts[1], nil); err != nil {
		t.Fatal(err)
	}
	before, gen := p.Entries(), p.Generation()
	for name, bad := range map[string]struct {
		from int
		segs []EPTMapping
	}{
		"over the locked entry": {0, layouts[0]},
		"past the last entry":   {2, layouts[1]},
		"an empty region":       {1, []EPTMapping{seg(4, 0, PermR)}},
	} {
		if _, err := p.Replace(bad.from, bad.segs, nil); err == nil {
			t.Errorf("Replace %s succeeded", name)
		}
		if got := p.Entries(); !slices.Equal(got, before) || p.Generation() != gen {
			t.Fatalf("rejected Replace %s changed the file: %v", name, got)
		}
	}

	const addr = 4 << phys.PageShift
	want := [2]Perm{PermRX, PermRWX}
	for i := 0; i < 64; i++ {
		gen := p.Generation()
		if _, err := p.Replace(1, layouts[i%2], nil); err != nil {
			t.Fatal(err)
		}
		if p.Generation() != gen+1 {
			t.Fatalf("replace %d moved the generation %d -> %d, want one bump", i, gen, p.Generation())
		}
		if perm := p.Lookup(addr); perm != want[i%2] {
			t.Fatalf("replace %d: Lookup(%#x) = %v, want %v", i, addr, perm, want[i%2])
		}
	}
	if !p.Entries()[0].Locked {
		t.Fatal("the locked entry did not survive")
	}
}

// IsNAPOT reports whether r is a naturally aligned power-of-two-sized
// region, i.e. encodable in a single NAPOT PMP entry.
func IsNAPOT(r phys.Region) bool {
	size := r.Size()
	if size == 0 || bits.OnesCount64(size) != 1 {
		return false
	}
	return uint64(r.Start)%size == 0
}

// --- pmpaddr register encodings ---------------------------------------
//
// Real RISC-V PMP entries are programmed through pmpaddr CSRs holding
// physical address bits [55:2]. Two range encodings matter here:
//
//   NAPOT: a naturally aligned power-of-two region of size 2^(z+3)
//   bytes is encoded in one register as (base>>2) | (2^z - 1) — the
//   size is carried by the count of trailing one bits. Minimum
//   encodable size is 8 bytes (z = 0).
//
//   TOR (top of range): entry i covers [pmpaddr[i-1]<<2, pmpaddr[i]<<2),
//   so an arbitrary 4-byte-aligned range takes a register pair.
//
// The simulator stores regions directly; these codecs are the tests'
// statement of what silicon can express.

// EncodeNAPOT encodes r as a single pmpaddr register value. r must be
// naturally aligned, power-of-two sized, and at least 8 bytes.
func EncodeNAPOT(r phys.Region) (uint64, error) {
	if !IsNAPOT(r) {
		return 0, fmt.Errorf("hw: region %v not NAPOT-encodable", r)
	}
	size := r.Size()
	if size < 8 {
		return 0, fmt.Errorf("hw: region %v below the 8-byte NAPOT minimum", r)
	}
	return uint64(r.Start)>>2 | (size>>3 - 1), nil
}

// DecodeNAPOT inverts EncodeNAPOT. An all-ones value (the whole
// address space, size 2^66 on RV64) is rejected: it is not
// representable as a Region.
func DecodeNAPOT(v uint64) (phys.Region, error) {
	z := bits.TrailingZeros64(^v) // count of trailing one bits
	if z >= 61 {
		return phys.Region{}, fmt.Errorf("hw: pmpaddr %#x: NAPOT size overflows the address space", v)
	}
	size := uint64(1) << (z + 3)
	base := (v &^ (uint64(1)<<z - 1)) << 2
	return phys.MakeRegion(phys.Addr(base), size), nil
}

// EncodeTOR encodes r as a (pmpaddr[i-1], pmpaddr[i]) register pair.
// Both bounds must be 4-byte aligned; any such non-empty range is
// encodable.
func EncodeTOR(r phys.Region) (lo, hi uint64, err error) {
	if r.Empty() {
		return 0, 0, fmt.Errorf("hw: tor encode: empty region %v", r)
	}
	if r.Start%4 != 0 || r.End%4 != 0 {
		return 0, 0, fmt.Errorf("hw: region %v not 4-byte aligned", r)
	}
	return uint64(r.Start) >> 2, uint64(r.End) >> 2, nil
}

// DecodeTOR inverts EncodeTOR. An empty range (hi <= lo) is an error:
// hardware treats such an entry as matching nothing.
func DecodeTOR(lo, hi uint64) (phys.Region, error) {
	if hi <= lo {
		return phys.Region{}, fmt.Errorf("hw: tor pair (%#x, %#x) is an empty range", lo, hi)
	}
	return phys.Region{Start: phys.Addr(lo << 2), End: phys.Addr(hi << 2)}, nil
}
