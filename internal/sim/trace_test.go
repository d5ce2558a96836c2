package sim

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

func traceLines(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != traceHeader {
		t.Fatalf("missing header, got %q", lines[0])
	}
	var rows [][]string
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	return rows
}

func TestTraceBasicInvariants(t *testing.T) {
	var buf bytes.Buffer
	c := oneTier(1, 1, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.5}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	_, err := Run(c, Options{Horizon: 500, Warmup: 50, Replications: 1, Seed: 3, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	rows := traceLines(t, &buf)
	if len(rows) < 100 {
		t.Fatalf("suspiciously short trace: %d rows", len(rows))
	}
	counts := map[string]int{}
	prevT := -1.0
	for _, r := range rows {
		if len(r) != 6 {
			t.Fatalf("malformed row %v", r)
		}
		ts, err := strconv.ParseFloat(r[0], 64)
		if err != nil {
			t.Fatalf("bad timestamp %q", r[0])
		}
		if ts < prevT {
			t.Fatalf("trace not time-ordered: %g after %g", ts, prevT)
		}
		prevT = ts
		counts[r[1]]++
	}
	// Flow conservation: every exit had an arrival; starts cover visits.
	if counts[traceExit] > counts[traceArrival] {
		t.Errorf("more exits (%d) than arrivals (%d)", counts[traceExit], counts[traceArrival])
	}
	if counts[traceVisitEnd] > counts[traceStart] {
		t.Errorf("more visit ends (%d) than service starts (%d)", counts[traceVisitEnd], counts[traceStart])
	}
	if counts[traceArrival]-counts[traceExit] > 50 {
		t.Errorf("too many in-flight at horizon: %d", counts[traceArrival]-counts[traceExit])
	}
	// Single-tier tandem: one visit per exit.
	if counts[traceVisitEnd] < counts[traceExit] {
		t.Errorf("exits (%d) exceed visit ends (%d)", counts[traceExit], counts[traceVisitEnd])
	}
}

func TestTraceExitValueIsSojourn(t *testing.T) {
	var buf bytes.Buffer
	c := oneTier(2, 2, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.4}},
		[]queueing.Demand{{Work: 1, CV2: 0}}) // deterministic 0.5 s service
	_, err := Run(c, Options{Horizon: 300, Warmup: 30, Replications: 1, Seed: 5, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range traceLines(t, &buf) {
		if r[1] != traceExit {
			continue
		}
		d, err := strconv.ParseFloat(r[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		// Sojourn is at least the deterministic service time.
		if d < 0.5-1e-9 {
			t.Errorf("exit sojourn %g below service time", d)
		}
	}
}

func TestTraceCapturesRetunesAndSetups(t *testing.T) {
	var buf bytes.Buffer
	c := oneTier(1, 2, queueing.NonPreemptive,
		[]cluster.Class{{Name: "a", Lambda: 0.8}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	_, err := Run(c, Options{
		Horizon: 500, Warmup: 50, Replications: 1, Seed: 7, Trace: &buf,
		Controller: flipFlop{}, ControlPeriod: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, traceRetune) {
		t.Error("no retune events traced")
	}

	buf.Reset()
	_, err = Run(c, Options{
		Horizon: 500, Warmup: 50, Replications: 1, Seed: 7, Trace: &buf,
		Sleep: []*SleepConfig{{Setup: queueing.NewExponential(0.5), SleepPower: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, traceSetupBegin) || !strings.Contains(out, traceSetupDone) {
		t.Error("no setup events traced")
	}
}

func TestTraceRequiresSingleReplication(t *testing.T) {
	var buf bytes.Buffer
	c := oneTier(1, 1, queueing.FCFS,
		[]cluster.Class{{Name: "a", Lambda: 0.1}},
		[]queueing.Demand{{Work: 1, CV2: 1}})
	if _, err := Run(c, Options{Horizon: 100, Replications: 2, Trace: &buf}); err == nil {
		t.Error("multi-replication trace accepted")
	}
}
