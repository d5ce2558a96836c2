package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", ""); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %g, want 2.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", "seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 1} // ≤0.1 ×2, (0.1,1] ×1, (1,10] ×1, overflow ×1
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-9 {
		t.Fatalf("sum = %g, want 102.65", h.Sum())
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(9)
	g.Add(1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if r.Snapshot() != nil || r.Names() != nil {
		t.Fatal("nil registry must snapshot empty")
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	// Kind clash panics too.
	r.Counter("dual", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind clash did not panic")
			}
		}()
		r.Gauge("dual", "")
	}()
}

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total", "all events").Add(42)
	r.Gauge("util", "utilization").Set(0.8125)
	r.Histogram("wait", "seconds", []float64{1, 2}).Observe(1.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(doc.Metrics) != 3 {
		t.Fatalf("got %d metrics, want 3", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "events_total" || doc.Metrics[0].Value != 42 {
		t.Fatalf("counter snapshot wrong: %+v", doc.Metrics[0])
	}
	if doc.Metrics[2].Type != "histogram" || doc.Metrics[2].Count != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", doc.Metrics[2])
	}
}

// Golden-style check that the Prometheus exposition output parses: every
// non-comment line must be `name{labels}? value`, every metric must carry a
// TYPE line, and histogram buckets must be cumulative and le-labelled. This
// is a hand-rolled line check (no external deps, per the module's rules).
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_arrival_total", "external arrivals").Add(17)
	r.Gauge("sim_power_watts", "average power").Set(1061.25)
	h := r.Histogram("solver_step", "step sizes", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	sampleRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	typeRE := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	helpRE := regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)

	types := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE"):
			if !typeRE.MatchString(line) {
				t.Errorf("malformed TYPE line: %q", line)
			}
			types++
		case strings.HasPrefix(line, "# HELP"):
			if !helpRE.MatchString(line) {
				t.Errorf("malformed HELP line: %q", line)
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment: %q", line)
		default:
			if !sampleRE.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
			}
		}
	}
	if types != 3 {
		t.Fatalf("got %d TYPE lines, want 3\n%s", types, out)
	}

	// Histogram invariants: cumulative buckets ending at +Inf == count.
	for _, want := range []string{
		`solver_step_bucket{le="0.1"} 1`,
		`solver_step_bucket{le="1"} 2`,
		`solver_step_bucket{le="+Inf"} 3`,
		`solver_step_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteMetricsFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs").Add(3)
	r.Gauge("power_watts", "power").Set(812.5)
	tl := NewTimeline("q")
	tl.Sample(0, []float64{1})
	tl.Sample(1, []float64{2})

	var prom, js bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		tl   *Timeline
		want string // "" checks the timeline document instead
	}{
		{"m.prom", tl, prom.String()},
		{"m.txt", nil, prom.String()},
		{"m.json", nil, js.String()},
		{"m.json", tl, ""},
	} {
		path := filepath.Join(dir, tc.name)
		if err := WriteMetricsFile(path, r, tc.tl); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want != "" {
			if string(got) != tc.want {
				t.Errorf("%s (timeline %v): got\n%s\nwant\n%s", tc.name, tc.tl != nil, got, tc.want)
			}
			continue
		}
		var doc struct {
			Metrics  []Snapshot      `json:"metrics"`
			Timeline json.RawMessage `json:"timeline"`
		}
		if err := json.Unmarshal(got, &doc); err != nil {
			t.Fatalf("timeline document: %v\n%s", err, got)
		}
		wantTL, _ := json.Marshal(tl)
		var gotTL bytes.Buffer
		if err := json.Compact(&gotTL, doc.Timeline); err != nil {
			t.Fatal(err)
		}
		if len(doc.Metrics) != 2 || gotTL.String() != string(wantTL) {
			t.Errorf("timeline document: %s", got)
		}
	}
	if err := WriteMetricsFile(filepath.Join(dir, "missing", "m.json"), r, nil); err == nil {
		t.Error("uncreatable path accepted")
	}
}
