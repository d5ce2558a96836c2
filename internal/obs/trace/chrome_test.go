package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteChromeTrace pairs service slices and renders instants from a
// synthetic lifecycle, then checks the document parses and has the expected
// shape.
func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(KindArrival, 0, 0, 1, -1, 0))
	r.Record(ev(KindServiceStart, 1, 0, 1, 0, 0))
	r.Record(ev(KindPreempt, 2, 0, 1, 0, 0)) // closes slice [1,2] on tier 0
	r.Record(ev(KindServiceStart, 3, 0, 1, 0, 0))
	r.Record(ev(KindServiceStop, 5, 0, 1, 0, 0)) // closes slice [3,5] on tier 0
	r.Record(ev(KindServiceStart, 5, 0, 1, 1, 0))
	r.Record(ev(KindServiceStop, 6, 0, 1, 1, 0)) // closes slice [5,6] on tier 1
	r.Record(ev(KindExit, 6, 0, 1, -1, float64(OutcomeCompleted)))

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			Args struct {
				Job     uint64 `json:"job"`
				Outcome string `json:"outcome"`
				Name    string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var slices, instants, meta int
	var durSum float64
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			durSum += e.Dur
			if e.Tid == lifecycleTid {
				t.Errorf("slice on lifecycle track: %+v", e)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if slices != 3 {
		t.Errorf("slices = %d, want 3", slices)
	}
	// Total service time is 1+2+1 = 4s → 4e6 µs across the slices.
	if durSum != 4e6 {
		t.Errorf("total slice duration = %g µs, want 4e6", durSum)
	}
	// arrival + preempt + exit
	if instants != 3 {
		t.Errorf("instants = %d, want 3", instants)
	}
	// lifecycle + tier 0 + tier 1
	if meta != 3 {
		t.Errorf("metadata events = %d, want 3", meta)
	}
	exit := doc.TraceEvents[len(doc.TraceEvents)-1]
	if !strings.HasPrefix(exit.Name, "exit") || exit.Args.Outcome != "completed" {
		t.Errorf("last event not the exit instant: %+v", exit)
	}
}

// TestWriteChromeTraceNilAndUnclosed: nil recorder emits a valid empty doc;
// slices with no close event are dropped, not emitted half-open.
func TestWriteChromeTraceNilAndUnclosed(t *testing.T) {
	var nilRec *Recorder
	var buf bytes.Buffer
	if err := nilRec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil recorder produced invalid JSON: %v", err)
	}

	buf.Reset()
	events := []Event{
		{T: 0, Kind: KindArrival, Job: 1, Station: -1},
		{T: 1, Kind: KindServiceStart, Job: 1, Station: 0},
		// no stop: ring may have wrapped past it
	}
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"ph":"X"`) {
		t.Errorf("unclosed slice was emitted: %s", buf.String())
	}
}
