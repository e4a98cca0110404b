package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/tyche-sim/tyche/internal/phys"
)

// Schedule strings. A schedule is a comma-separated list of fault
// specs; FormatSchedule(ParseSchedule(s)) round-trips. The grammar:
//
//	mc<core>@<after>[x<count>]              machine check on core
//	stall<core>@<after>                     hard core stall
//	dropirq<dev>@<after>[x<count>]          drop device's raised IRQs
//	spurious<dev>.<vector>@<after>[x<count>] phantom IRQ on poll
//	quote@<after>[x<count>]                 transient TPM quote failure
//	drop@<after>[x<count>]                  discard wire frame (link fault)
//	dup@<after>[x<count>]                   replay wire frame (link fault)
//	reorder@<after>[x<count>]               swap wire frame with its successor
//
// e.g. "mc1@128,dropirq0@2x3,quote@0x2" — machine-check core 1's 129th
// access, drop nic 0's 3rd-5th raises, fail the first two quotes.
// Printed in every failing test's output, a schedule string plus the
// workload seed is the complete reproducer.

// FormatFault renders one fault in schedule grammar.
func FormatFault(f Fault) string {
	var b strings.Builder
	switch f.Kind {
	case MachineCheck:
		fmt.Fprintf(&b, "mc%d", f.Core)
	case CoreStall:
		fmt.Fprintf(&b, "stall%d", f.Core)
	case DropIRQ:
		fmt.Fprintf(&b, "dropirq%d", f.Device)
	case SpuriousIRQ:
		fmt.Fprintf(&b, "spurious%d.%d", f.Device, f.Vector)
	case QuoteFail:
		b.WriteString("quote")
	case LinkDrop, LinkDup, LinkReorder:
		b.WriteString(f.Kind.String())
	default:
		fmt.Fprintf(&b, "kind%d", f.Kind)
	}
	fmt.Fprintf(&b, "@%d", f.After)
	if f.count() != 1 {
		fmt.Fprintf(&b, "x%d", f.count())
	}
	return b.String()
}

// FormatSchedule renders a schedule as a parseable string.
func FormatSchedule(faults []Fault) string {
	specs := make([]string, len(faults))
	for i, f := range faults {
		specs[i] = FormatFault(f)
	}
	return strings.Join(specs, ",")
}

// parseFault parses one spec in schedule grammar.
func parseFault(spec string) (Fault, error) {
	bad := func(why string) (Fault, error) {
		return Fault{}, fmt.Errorf("fault: bad spec %q: %s", spec, why)
	}
	head, tail, ok := strings.Cut(spec, "@")
	if !ok {
		return bad("missing @after")
	}
	var f Fault
	switch {
	case strings.HasPrefix(head, "mc"):
		f.Kind = MachineCheck
		head = head[len("mc"):]
	case strings.HasPrefix(head, "stall"):
		f.Kind = CoreStall
		head = head[len("stall"):]
	case strings.HasPrefix(head, "dropirq"):
		f.Kind = DropIRQ
		head = head[len("dropirq"):]
	case strings.HasPrefix(head, "spurious"):
		f.Kind = SpuriousIRQ
		head = head[len("spurious"):]
	case head == "quote":
		f.Kind = QuoteFail
		head = ""
	case head == "drop":
		f.Kind = LinkDrop
		head = ""
	case head == "dup":
		f.Kind = LinkDup
		head = ""
	case head == "reorder":
		f.Kind = LinkReorder
		head = ""
	default:
		return bad("unknown kind")
	}
	switch f.Kind {
	case MachineCheck, CoreStall:
		n, err := strconv.ParseUint(head, 10, 32)
		if err != nil {
			return bad("core: " + err.Error())
		}
		f.Core = phys.CoreID(n)
	case DropIRQ:
		n, err := strconv.ParseUint(head, 10, 32)
		if err != nil {
			return bad("device: " + err.Error())
		}
		f.Device = phys.DeviceID(n)
	case SpuriousIRQ:
		devs, vecs, ok := strings.Cut(head, ".")
		if !ok {
			return bad("spurious needs dev.vector")
		}
		d, err := strconv.ParseUint(devs, 10, 32)
		if err != nil {
			return bad("device: " + err.Error())
		}
		v, err := strconv.ParseUint(vecs, 10, 32)
		if err != nil {
			return bad("vector: " + err.Error())
		}
		f.Device = phys.DeviceID(d)
		f.Vector = uint32(v)
	case QuoteFail:
		if head != "" {
			return bad("quote takes no target")
		}
	case LinkDrop, LinkDup, LinkReorder:
		if head != "" {
			return bad("link faults take no target")
		}
	}
	afters, counts, hasCount := strings.Cut(tail, "x")
	after, err := strconv.ParseUint(afters, 10, 64)
	if err != nil {
		return bad("after: " + err.Error())
	}
	f.After = after
	if hasCount {
		cnt, err := strconv.ParseUint(counts, 10, 64)
		if err != nil || cnt == 0 {
			return bad("count must be a positive integer")
		}
		f.Count = cnt
	}
	return f, nil
}

// ParseSchedule parses a comma-separated schedule string. The empty
// string is the empty schedule.
func ParseSchedule(s string) ([]Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Fault
	for _, spec := range strings.Split(s, ",") {
		f, err := parseFault(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// FromSeed derives a schedule of n faults for a machine with the given
// core and device counts, deterministically from seed: same inputs,
// same schedule, forever. Core-targeted faults avoid core 0 when the
// machine has more than one core, so the schedule never takes out the
// core conventionally driving dom0's control workload.
func FromSeed(seed int64, cores, devices, n int) []Fault {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{MachineCheck, CoreStall, DropIRQ, SpuriousIRQ, QuoteFail}
	if devices == 0 {
		kinds = kinds[:2]
	}
	out := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{Kind: kinds[rng.Intn(len(kinds))]}
		switch f.Kind {
		case MachineCheck, CoreStall:
			if cores > 1 {
				f.Core = phys.CoreID(1 + rng.Intn(cores-1))
			}
			f.After = uint64(rng.Intn(256))
		case DropIRQ:
			f.Device = phys.DeviceID(rng.Intn(devices))
			f.After = uint64(rng.Intn(4))
			f.Count = uint64(1 + rng.Intn(3))
		case SpuriousIRQ:
			f.Device = phys.DeviceID(rng.Intn(devices))
			f.Vector = uint32(rng.Intn(8))
			f.After = uint64(rng.Intn(4))
		case QuoteFail:
			f.After = uint64(rng.Intn(2))
			f.Count = uint64(1 + rng.Intn(2))
		}
		out = append(out, f)
	}
	return out
}
