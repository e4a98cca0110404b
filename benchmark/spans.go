package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanID names one kind of span. A name is "<layer>.<call>": the layer
// is the module the benchmark called into, and everything the span
// covers that no child span covers is that layer's self time.
type spanID uint8

const (
	spOp spanID = iota
	spCall
	spRunCore
	spPulse
	spServe
	spShare
	spRevoke
	spCheckAccess
	spEnqueue
	spRingFlush
	spReap
	spMigrate
	spFreeze
	spSnapshot
	spEncode
	spConnect
	spSend
	spDecode
	spRestore
	spBootQuote
	spSession
	spAttest
	spVerifyDomain
	spRegister
	spDepartKill
	numSpans
)

var spanNames = [numSpans]string{
	spOp:           "bench.op",
	spCall:         "core.Call",
	spRunCore:      "hw.RunCore",
	spPulse:        "rv.Pulse",
	spServe:        "fleet.Serve",
	spShare:        "core.Share",
	spRevoke:       "core.Revoke",
	spCheckAccess:  "core.CheckAccess",
	spEnqueue:      "libtyche.Enqueue",
	spRingFlush:    "core.RingFlush",
	spReap:         "libtyche.Reap",
	spMigrate:      "fleet.Migrate",
	spFreeze:       "fleet.Freeze",
	spSnapshot:     "core.SnapshotDomain",
	spEncode:       "fleet.JSONEncode",
	spConnect:      "dist.Connect",
	spSend:         "dist.Send",
	spDecode:       "fleet.JSONDecode",
	spRestore:      "core.RestoreDomain",
	spBootQuote:    "core.BootQuote",
	spSession:      "attest.NewSession",
	spAttest:       "core.Attest",
	spVerifyDomain: "attest.VerifyDomain",
	spRegister:     "fleet.Register",
	spDepartKill:   "core.DepartKill",
}

// layers lists every layer a span can belong to; each gets an
// "<layer>.op_share_pct" metric.
var layers = []string{"hw", "core", "libtyche", "fleet", "dist", "attest", "rv", "bench"}

func (id spanID) layer() string {
	name := spanNames[id]
	return name[:strings.IndexByte(name, '.')]
}

// span is one recorded interval. It holds no pointers, so the
// preallocated buffer costs the garbage collector nothing to scan.
type span struct {
	id     spanID
	parent int32 // index of the enclosing span, -1 for an op's root
	op     uint32
	start  int64 // ns since the tracer was made
	end    int64
}

// maxSpans bounds the in-memory buffer (40 bytes a span). A traced
// phase ends early when it fills.
const maxSpans = 1 << 20

// maxFileSpans bounds the Chrome trace file: the first spans of the
// run are enough to read a timeline, and the aggregates cover them all.
const maxFileSpans = 50_000

// tracer records spans around the benchmark's own calls into each
// layer. The workload bodies run on one goroutine and their calls nest
// strictly, so the open spans form a stack. A nil tracer records
// nothing: untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	op    uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

// begin opens a span under the innermost open one. A root span
// (spOp) starts a new op.
func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{id: id, parent: parent, op: t.op, start: int64(time.Since(t.t0))})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = int64(time.Since(t.t0))
}

// full reports whether another slice of about perSlice spans might not
// fit in the buffer.
func (t *tracer) full(perSlice int) bool {
	return len(t.spans)+2*perSlice > cap(t.spans)
}

// spanStats is what the metrics are derived from.
type spanStats struct {
	durs  [numSpans][]float64 // every span's duration, ns
	self  [numSpans]float64   // total self time, ns
	total [numSpans]float64   // total duration, ns
	wall  float64             // total duration of the root spans, ns
}

func (t *tracer) stats() *spanStats {
	st := &spanStats{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		} else {
			st.wall += float64(s.end - s.start)
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		st.durs[s.id] = append(st.durs[s.id], float64(d))
		st.total[s.id] += float64(d)
		st.self[s.id] += float64(d - child[i])
	}
	return st
}

// medianUS is the median duration of one kind of span in microseconds.
func (st *spanStats) medianUS(id spanID) float64 { return median(st.durs[id]) / 1e3 }

// layerShares splits the traced wall time by layer: each layer's self
// time as a percentage of the root spans' total. The shares add up to
// 100 because a span's self time is its duration minus its children's.
func (st *spanStats) layerShares() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for id := spanID(0); id < numSpans; id++ {
		if st.wall > 0 {
			out[id.layer()] += 100 * st.self[id] / st.wall
		}
	}
	return out
}

// writeChrome writes the first maxFileSpans spans as Chrome trace-event
// JSON ("X" complete events), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := len(t.spans)
	if n > maxFileSpans {
		n = maxFileSpans
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans[:n] {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			spanNames[s.id], s.id.layer(), float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
