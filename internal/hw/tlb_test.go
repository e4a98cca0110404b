package hw

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// tlbModel is the reference the slot-array TLB is tested against: the
// key → slot map beside the slot array that the TLB used to be, with
// the same clock hand. Every eviction decision is a function of the
// hand, the reference bits and which slots are free, so the two must
// agree on the resident set after every operation.
type tlbModel struct {
	strict  bool
	entries map[tlbKey]int
	slots   []tlbSlot
	hand    int

	hits, misses, flushes uint64
}

func newTLBModel(capacity int) *tlbModel {
	return &tlbModel{entries: make(map[tlbKey]int), slots: make([]tlbSlot, capacity)}
}

func (m *tlbModel) lookup(asid, pg, gen uint64) (Perm, bool) {
	k := tlbKey{asid, pg}
	i, ok := m.entries[k]
	if ok && m.strict && m.slots[i].gen != gen {
		delete(m.entries, k)
		m.slots[i] = tlbSlot{}
		ok = false
	}
	if !ok {
		m.misses++
		return 0, false
	}
	m.slots[i].ref = true
	m.hits++
	return m.slots[i].perm, true
}

func (m *tlbModel) insert(asid, pg uint64, perm Perm, gen uint64) {
	k := tlbKey{asid, pg}
	i, ok := m.entries[k]
	if !ok {
		i = m.reclaim()
		m.entries[k] = i
	}
	m.slots[i] = tlbSlot{key: k, perm: perm, gen: gen, used: true, ref: true}
}

func (m *tlbModel) reclaim() int {
	for {
		i := m.hand
		s := &m.slots[i]
		m.hand = (m.hand + 1) % len(m.slots)
		if !s.used {
			return i
		}
		if s.ref {
			s.ref = false
			continue
		}
		delete(m.entries, s.key)
		s.used = false
		return i
	}
}

func (m *tlbModel) flush() {
	clear(m.entries)
	clear(m.slots)
	m.hand = 0
	m.flushes++
}

func (m *tlbModel) flushRegion(r phys.Region) {
	for k, i := range m.entries {
		if k.page >= r.Start.Page() && k.page < r.End.Page() {
			delete(m.entries, k)
			m.slots[i] = tlbSlot{}
		}
	}
	m.flushes++
}

// resident is what a TLB holds: every cached key with its whole slot.
func (m *tlbModel) resident() map[tlbKey]tlbSlot {
	out := make(map[tlbKey]tlbSlot, len(m.entries))
	for k, i := range m.entries {
		out[k] = m.slots[i]
	}
	return out
}

// resident reads the slot array directly, past hi as well, and checks
// the invariants the scans rely on: no used slot at or above hi, no key
// cached twice.
func (t *TLB) resident(tb testing.TB) map[tlbKey]tlbSlot {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[tlbKey]tlbSlot)
	for i, s := range t.slots {
		if !s.used {
			continue
		}
		if i >= t.hi {
			tb.Fatalf("slot %d used at or above hi = %d", i, t.hi)
		}
		if _, dup := out[s.key]; dup {
			tb.Fatalf("key %+v cached twice", s.key)
		}
		out[s.key] = s
	}
	return out
}

// tlbScriptPages is the page space scripts play in: with two ASIDs, 192
// keys — three times the largest capacity tested, so the hand wraps.
const tlbScriptPages = 96

var tlbScriptCaps = [...]int{2, 8, 64}

// runTLBScript drives a TLB and the model with the same operations —
// the first byte picks the capacity, then three bytes an operation — and
// compares them after every one: the returned permission and hit, Len,
// Stats, and the resident set with each entry's permission, generation
// and reference bit. Equal resident sets before and after an operation
// mean both evicted the same keys.
func runTLBScript(tb testing.TB, script []byte) {
	tb.Helper()
	if len(script) == 0 {
		return
	}
	capacity := tlbScriptCaps[int(script[0])%len(tlbScriptCaps)]
	tlb, model := NewTLB(capacity), newTLBModel(capacity)
	for step, ops := 0, script[1:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
		pg, asid, gen := uint64(ops[1])%tlbScriptPages, uint64(ops[2]&1), uint64(ops[2]>>1&3)
		var desc string
		switch op := ops[0] % 16; {
		case op < 6:
			desc = fmt.Sprintf("Lookup(%d, %d, gen %d)", asid, pg, gen)
			perm, hit := tlb.Lookup(asid, pg, gen)
			if wantPerm, wantHit := model.lookup(asid, pg, gen); perm != wantPerm || hit != wantHit {
				tb.Fatalf("step %d: %s = (%v, %v), model (%v, %v)", step, desc, perm, hit, wantPerm, wantHit)
			}
		case op < 13:
			perm := Perm(ops[2] >> 3 & 7)
			desc = fmt.Sprintf("Insert(%d, %d, %v, gen %d)", asid, pg, perm, gen)
			tlb.Insert(asid, pg, perm, gen)
			model.insert(asid, pg, perm, gen)
		case op == 13:
			r := phys.MakeRegion(phys.Addr(pg<<phys.PageShift), (1+uint64(ops[2]>>3))*phys.PageSize)
			desc = fmt.Sprintf("FlushRegion(%v)", r)
			tlb.FlushRegion(r)
			model.flushRegion(r)
		case op == 14:
			desc = "Flush()"
			tlb.Flush()
			model.flush()
		default:
			tlb.Strict = !tlb.Strict
			model.strict = tlb.Strict
			desc = fmt.Sprintf("Strict = %v", tlb.Strict)
		}
		got, want := tlb.resident(tb), model.resident()
		if !reflect.DeepEqual(got, want) {
			tb.Fatalf("step %d: after %s resident set\n%v\nmodel\n%v", step, desc, got, want)
		}
		if tlb.Len() != len(want) {
			tb.Fatalf("step %d: after %s Len = %d, model %d", step, desc, tlb.Len(), len(want))
		}
		if h, m, f := tlb.Stats(); h != model.hits || m != model.misses || f != model.flushes {
			tb.Fatalf("step %d: after %s Stats = %d/%d/%d, model %d/%d/%d",
				step, desc, h, m, f, model.hits, model.misses, model.flushes)
		}
	}
}

// TestTLBMatchesModel runs long random scripts at each capacity.
func TestTLBMatchesModel(t *testing.T) {
	for c := range tlbScriptCaps {
		for seed := int64(1); seed <= 4; seed++ {
			script := make([]byte, 1+3*6000)
			rand.New(rand.NewSource(seed)).Read(script)
			script[0] = byte(c)
			runTLBScript(t, script)
		}
	}
}

// tlbSeeds are the cases a random script reaches late or rarely.
func tlbSeeds() [][]byte {
	const lookup, insert, region, flush, strict = 0, 6, 13, 14, 15
	ins := func(pg, gen byte) []byte { return []byte{insert, pg, gen<<1 | byte(PermRW)<<3} }
	var wrap []byte // capacity 8: the hand goes round twice, some entries referenced
	for pg := byte(0); pg < 20; pg++ {
		wrap = append(wrap, ins(pg, 0)...)
		wrap = append(wrap, lookup, pg/2, 0)
	}
	cat := func(capSel byte, parts ...[]byte) []byte {
		return append([]byte{capSel}, slices.Concat(parts...)...)
	}
	return [][]byte{
		cat(1, wrap),
		// Re-insert of a resident key: new permission and generation, no
		// slot taken, hand unmoved.
		cat(0, ins(1, 0), ins(2, 0), ins(1, 1), ins(3, 0)),
		// Strict mode evicts on a generation mismatch, leaving a hole
		// that the next fill must not take ahead of the hand.
		cat(1, ins(1, 0), ins(2, 0), ins(3, 0), []byte{strict, 0, 0, lookup, 2, 1 << 1}, ins(4, 1), ins(2, 1)),
		// A region flush that empties the TLB, then fills from where the
		// hand stopped.
		cat(2, ins(4, 0), ins(5, 0), ins(6, 0), []byte{region, 4, 2 << 3, lookup, 5, 0}, ins(7, 0), []byte{flush, 0, 0}, ins(8, 0)),
	}
}

func FuzzTLBOps(f *testing.F) {
	for _, s := range tlbSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runTLBScript(t, script) })
}

// BenchmarkTLBFlush fills n entries and flushes them: sparse4 is the
// context switch after a short request, full64 the worst case.
func BenchmarkTLBFlush(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    uint64
	}{{"sparse4", 4}, {"full64", DefaultTLBEntries}} {
		b.Run(bc.name, func(b *testing.B) {
			tlb := NewTLB(DefaultTLBEntries)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for pg := uint64(0); pg < bc.n; pg++ {
					tlb.Insert(1, pg, PermRW, 1)
				}
				tlb.Flush()
			}
		})
	}
}
