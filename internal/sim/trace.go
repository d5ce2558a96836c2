package sim

import (
	"bufio"
	"fmt"
	"io"
)

// traceHeader is the CSV header line of the event trace.
const traceHeader = "time,event,class,job,station,value"

// traceBufSize is the traceWriter's internal buffer: large enough that a
// busy trace issues one underlying write per ~64 KiB of rows instead of one
// per row, small enough to be irrelevant next to the simulator state.
const traceBufSize = 64 << 10

// traceWriter serializes simulator events as CSV rows through an internal
// bufio.Writer (one coalesced write per buffer fill instead of one syscall
// per event). The run loop calls flush after the replication finishes;
// callers hand Options.Trace a plain writer and must not see rows before
// Run returns. A nil traceWriter is a no-op, keeping the hot path
// branch-cheap when tracing is off.
type traceWriter struct {
	bw  *bufio.Writer
	err error
}

func newTraceWriter(w io.Writer) *traceWriter {
	t := &traceWriter{bw: bufio.NewWriterSize(w, traceBufSize)}
	t.line("%s\n", traceHeader)
	return t
}

func (t *traceWriter) line(format string, args ...any) {
	if t == nil || t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.bw, format, args...)
}

// flush pushes the buffered tail to the underlying writer, folding any
// flush failure into the error the next Err call reports.
func (t *traceWriter) flush() {
	if t == nil || t.err != nil {
		return
	}
	t.err = t.bw.Flush()
}

// Err returns the first write (or flush) error the trace hit, or nil. Once
// a write fails the writer goes silent, so the trace is truncated at that
// point; the run loop flushes and surfaces this error from sim.Run instead
// of dropping it.
func (t *traceWriter) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// event writes one row. station is -1 for network-level events; value is an
// event-specific number (speed for retune, 0 otherwise).
func (t *traceWriter) event(now float64, kind string, class int, jobID uint64, station int, value float64) {
	if t == nil {
		return
	}
	t.line("%.9g,%s,%d,%d,%d,%.9g\n", now, kind, class, jobID, station, value)
}

// Trace event kinds, written in the `event` column.
const (
	traceArrival    = "arrival" // external arrival accepted
	traceStart      = "service_start"
	tracePreempt    = "preempt"
	traceVisitEnd   = "visit_end"   // service at a station completed
	traceExit       = "exit"        // request left the system
	traceRetune     = "retune"      // controller changed a station's speed (value = new speed)
	traceSetupBegin = "setup_begin" // a sleeping server starts warming up
	traceSetupDone  = "setup_done"
	traceBreakdown  = "breakdown"  // a server failed (value = failed count after)
	traceRepair     = "repair"     // a server was repaired (value = failed count after)
	traceTimeout    = "timeout"    // an attempt's deadline expired (value = age)
	traceRetry      = "retry"      // a timed-out request re-enters (value = attempt #)
	traceAbandon    = "abandon"    // retry budget spent; the request leaves unserved
	traceShed       = "shed"       // an arrival refused by admission control
	traceShedLevel  = "shed_level" // admission level changed (value = classes shed)
	tracePark       = "park"       // plan controller resized a tier's active pool (value = parked count after)
)
