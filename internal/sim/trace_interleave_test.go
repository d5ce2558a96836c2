package sim

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

// parseRow pulls the typed columns out of one trace row.
type traceRow struct {
	time    float64
	event   string
	class   int
	job     uint64
	station int
	value   float64
}

func parseRows(t *testing.T, buf *bytes.Buffer) []traceRow {
	t.Helper()
	nFields := len(strings.Split(traceHeader, ","))
	var rows []traceRow
	for i, fields := range traceLines(t, buf) {
		if len(fields) != nFields {
			t.Fatalf("row %d has %d fields, want %d: %v", i, len(fields), nFields, fields)
		}
		tm, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("row %d bad time %q: %v", i, fields[0], err)
		}
		class, err := strconv.Atoi(fields[2])
		if err != nil {
			t.Fatalf("row %d bad class %q", i, fields[2])
		}
		job, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			t.Fatalf("row %d bad job %q", i, fields[3])
		}
		station, err := strconv.Atoi(fields[4])
		if err != nil {
			t.Fatalf("row %d bad station %q", i, fields[4])
		}
		val, err := strconv.ParseFloat(fields[5], 64)
		if err != nil {
			t.Fatalf("row %d bad value %q", i, fields[5])
		}
		rows = append(rows, traceRow{tm, fields[1], class, job, station, val})
	}
	// Times must be monotone non-decreasing throughout.
	for i := 1; i < len(rows); i++ {
		if rows[i].time < rows[i-1].time {
			t.Fatalf("trace time went backwards at row %d: %g < %g",
				i, rows[i].time, rows[i-1].time)
		}
	}
	return rows
}

// Sleep path: every warm-up must open with setup_begin before its setup_done,
// the pending-setup count may never go negative, and service starts only
// happen while no spare warmed server sits unused (instant-off has no idle
// awake servers).
func TestTraceSleepInterleaving(t *testing.T) {
	var buf bytes.Buffer
	c := oneTier(2, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.8}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	o := Options{
		Horizon: 2000, Replications: 1, Seed: 5, Trace: &buf,
		Sleep: []*SleepConfig{{Setup: queueing.NewExponential(0.5), SleepPower: 5}},
	}
	if _, err := Run(c, o); err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, &buf)

	begins, dones := 0, 0
	for _, r := range rows {
		switch r.event {
		case traceSetupBegin:
			begins++
		case traceSetupDone:
			dones++
		}
		if dones > begins {
			t.Fatalf("setup_done before setup_begin at t=%g (begin %d, done %d)",
				r.time, begins, dones)
		}
	}
	if begins == 0 {
		t.Fatal("sleep-enabled run produced no setup_begin events")
	}
	if dones > begins {
		t.Fatalf("%d setup_done for %d setup_begin", dones, begins)
	}
	// Setup events are tier-level: no job id, station recorded.
	for _, r := range rows {
		if r.event == traceSetupBegin || r.event == traceSetupDone {
			if r.job != 0 || r.station != 0 || r.class != -1 {
				t.Fatalf("malformed setup row: %+v", r)
			}
		}
	}
}

// Preemption path: a preempted job must have started service before the
// preempt, must start again afterwards (resume), and must end its visit only
// after its last start. The preemptor (lower class index) starts service at
// the preempt instant.
func TestTracePreemptInterleaving(t *testing.T) {
	var buf bytes.Buffer
	c := oneTier(1, 1, queueing.PreemptiveResume,
		[]cluster.Class{{Name: "hi", Lambda: 0.3}, {Name: "lo", Lambda: 0.4}},
		[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1, CV2: 1}})
	o := Options{Horizon: 4000, Replications: 1, Seed: 3, Trace: &buf}
	if _, err := Run(c, o); err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, &buf)

	starts := map[uint64]int{}    // job -> service_start count so far
	preempted := map[uint64]int{} // job -> preempt count so far
	preempts := 0
	for i, r := range rows {
		switch r.event {
		case traceStart:
			starts[r.job]++
		case tracePreempt:
			preempts++
			if r.class != 1 {
				t.Fatalf("row %d: preempted class %d, only the low class can be preempted", i, r.class)
			}
			if starts[r.job] <= preempted[r.job] {
				t.Fatalf("row %d: job %d preempted without a fresh service_start", i, r.job)
			}
			preempted[r.job]++
			// The same instant must hand the server to a class-0 job.
			j := i + 1
			for j < len(rows) && rows[j].time == r.time {
				if rows[j].event == traceStart && rows[j].class == 0 {
					break
				}
				j++
			}
			if j >= len(rows) || rows[j].time != r.time {
				t.Fatalf("row %d: preempt at t=%g not followed by a class-0 start at the same instant", i, r.time)
			}
		case traceVisitEnd:
			// A visit can only end while the job holds the server: its
			// starts must outnumber its preempts.
			if starts[r.job] <= preempted[r.job] {
				t.Fatalf("row %d: job %d visit_end while preempted", i, r.job)
			}
		}
	}
	if preempts == 0 {
		t.Fatal("preemptive run produced no preempt events")
	}
	// Every preempted job must eventually resume: total starts exceed the
	// preempt count for that job.
	for job, p := range preempted {
		if starts[job] < p+1 {
			t.Fatalf("job %d: %d starts for %d preempts (never resumed)", job, starts[job], p)
		}
	}
}

// failingWriter errors after a fixed number of bytes, truncating the trace.
type failingWriter struct {
	n   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// The satellite bugfix: a trace writer that starts failing mid-run must turn
// into a sim.Run error instead of a silently truncated trace.
func TestTraceWriteErrorPropagates(t *testing.T) {
	c := oneTier(1, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.5}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	sentinel := errors.New("disk full")
	w := &failingWriter{n: 256, err: sentinel}
	_, err := Run(c, Options{Horizon: 1000, Replications: 1, Seed: 1, Trace: w})
	if err == nil {
		t.Fatal("trace write failure must fail the run")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap the writer's error", err)
	}
}
