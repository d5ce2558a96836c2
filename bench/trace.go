package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// The layers spans are attributed to: this repository's modules, plus the
// harness itself (op bookkeeping and output checks).
const (
	layerBench   = "bench"
	layerCluster = "cluster"
	layerCore    = "core"
	layerControl = "control"
	layerSim     = "sim"
)

// span is one timed call across a layer boundary. mem holds the heap
// counters (bytes allocated, objects allocated, GC cycles) read when the span
// began, replaced by their deltas over the span when it ends.
type span struct {
	name, layer string
	op, parent  int
	start, end  time.Duration
	mem         [3]uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans in memory around the benchmark's calls into each
// layer, and labels the CPU profile's samples with the layer being called.
// A nil *tracer is the untraced mode: call only times its function.
type tracer struct {
	t0    time.Time
	ctx   context.Context // carries the enclosing span's profiler labels
	op    int             // op id stamped on new spans (-1 outside ops)
	spans []span
	open  []int
	last  int // index of the most recently ended span
	heap  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:  time.Now(),
		ctx: context.Background(),
		op:  -1,
		heap: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

func (t *tracer) readHeap() (v [3]uint64) {
	metrics.Read(t.heap)
	for i, s := range t.heap {
		v[i] = s.Value.Uint64()
	}
	return v
}

// call runs fn as one span named name in the given layer and returns the CPU
// time the call took as its caller sees it — including the tracer's own
// bookkeeping, which is what makes the traced-vs-untraced latency comparison
// an honest measure of tracing overhead. Spans themselves are stamped with
// the wall clock, so the span file shows the run as it happened.
func (t *tracer) call(name, layer string, fn func()) time.Duration {
	c0 := cpuTime()
	if t == nil {
		fn()
		return cpuTime() - c0
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, layer: layer, op: t.op, parent: parent, mem: t.readHeap()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	t.spans[id].start = time.Since(t.t0)
	outer := t.ctx
	pprof.Do(outer, pprof.Labels("layer", layer), func(ctx context.Context) {
		t.ctx = ctx
		fn()
	})
	t.ctx = outer
	sp := &t.spans[id]
	sp.end = time.Since(t.t0)
	after := t.readHeap()
	for i := range sp.mem {
		sp.mem[i] = after[i] - sp.mem[i]
	}
	t.open = t.open[:len(t.open)-1]
	t.last = id
	return cpuTime() - c0
}

// rename renames the span that ended last — for calls whose outcome (a
// controller solve versus a hold) is known only once they return.
func (t *tracer) rename(name string) {
	if t != nil && len(t.spans) > 0 {
		t.spans[t.last].name = name
	}
}

// self returns each span's self time — its duration minus the part its
// children cover (children never overlap: one goroutine opens them in turn)
// — and likewise its self bytes allocated.
func (t *tracer) self() (selfTime []time.Duration, selfBytes []float64) {
	selfTime = make([]time.Duration, len(t.spans))
	selfBytes = make([]float64, len(t.spans))
	for i, s := range t.spans {
		selfTime[i] += s.dur()
		selfBytes[i] += float64(s.mem[0])
		if s.parent >= 0 {
			selfTime[s.parent] -= s.dur()
			selfBytes[s.parent] -= float64(s.mem[0])
		}
	}
	return selfTime, selfBytes
}

// attribution sums the traced work by layer: the root spans' total duration,
// heap bytes, objects and GC cycles, and each layer's self time and self
// bytes.
type attribution struct {
	rootTime                       time.Duration
	rootBytes, rootObjects, rootGC float64
	selfTime                       map[string]time.Duration
	selfBytes                      map[string]float64
}

func (t *tracer) attribute() attribution {
	a := attribution{selfTime: map[string]time.Duration{}, selfBytes: map[string]float64{}}
	st, sb := t.self()
	for i, s := range t.spans {
		a.selfTime[s.layer] += st[i]
		a.selfBytes[s.layer] += sb[i]
		if s.parent < 0 {
			a.rootTime += s.dur()
			a.rootBytes += float64(s.mem[0])
			a.rootObjects += float64(s.mem[1])
			a.rootGC += float64(s.mem[2])
		}
	}
	return a
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly.
func (t *tracer) writeChrome(w io.Writer) error {
	type args struct {
		Op     int     `json:"op"`
		SelfUS float64 `json:"self_us"`
		AllocB uint64  `json:"alloc_B"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	st, _ := t.self()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: us(s.start), Dur: us(s.dur()), Pid: 1, Tid: 1,
			Args: args{Op: s.op, SelfUS: us(st[i]), AllocB: s.mem[0]},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// spanTable renders per-name span statistics: count, p50 and p90 duration,
// total and self time. It is the breakdown behind the per-layer shares — the
// per-solver-kind solve times on plan, solve-versus-hold epochs on autoscale,
// the set-up/loop/finalize split of a replication.
func (t *tracer) spanTable(b *strings.Builder) {
	st, _ := t.self()
	durs := map[string][]float64{}
	self := map[string]float64{}
	for i, s := range t.spans {
		durs[s.name] = append(durs[s.name], ms(s.dur()))
		self[s.name] += ms(st[i])
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b, "%-30s %7s %10s %10s %12s %12s\n", "span", "n", "p50 ms", "p90 ms", "total ms", "self ms")
	pct := func(d []float64, p float64) string {
		if v, ok := nearestRank(d, p); ok {
			return fmt.Sprintf("%.3f", v)
		}
		return "-" // too few samples beyond it
	}
	for _, n := range names {
		d := durs[n]
		fmt.Fprintf(b, "%-30s %7d %10s %10s %12.1f %12.1f\n", n, len(d), pct(d, 0.5), pct(d, 0.9), sum(d), self[n])
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
