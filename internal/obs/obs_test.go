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
	c.Add(1)
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
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Fatalf("gauge = %g, want -1.25", got)
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	c.Add(3)
	g.Set(9)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if r.Snapshot() != nil {
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
				c.Add(1)
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
	if len(doc.Metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "events_total" || doc.Metrics[0].Value != 42 {
		t.Fatalf("counter snapshot wrong: %+v", doc.Metrics[0])
	}
	if doc.Metrics[1].Type != "gauge" || doc.Metrics[1].Value != 0.8125 {
		t.Fatalf("gauge snapshot wrong: %+v", doc.Metrics[1])
	}
}

// Golden-style check that the Prometheus exposition output parses: every
// non-comment line must be `name value` and every metric must carry a TYPE
// line. This is a hand-rolled line check (no external deps, per the module's
// rules).
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_arrival_total", "external arrivals").Add(17)
	r.Gauge("sim_power_watts", "average power").Set(1061.25)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	sampleRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]* -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	typeRE := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge)$`)
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
	if types != 2 {
		t.Fatalf("got %d TYPE lines, want 2\n%s", types, out)
	}
}

// TestWriteJSONNonFiniteIsNull checks that NaN and ±Inf gauges (a window
// gauge before its class's first sojourn reads NaN) marshal as null rather
// than failing the whole document, and that finite values keep the default
// encoding byte for byte.
func TestWriteJSONNonFiniteIsNull(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs").Add(2)
	r.Gauge("util", "utilization").Set(0.8125)
	r.Gauge("delay_seconds", "").Set(math.NaN())
	r.Gauge("hi", "").Set(math.Inf(1))
	r.Gauge("lo", "").Set(math.Inf(-1))

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{
  "metrics": [
    {
      "name": "runs_total",
      "help": "runs",
      "type": "counter",
      "value": 2
    },
    {
      "name": "util",
      "help": "utilization",
      "type": "gauge",
      "value": 0.8125
    },
    {
      "name": "delay_seconds",
      "type": "gauge",
      "value": null
    },
    {
      "name": "hi",
      "type": "gauge",
      "value": null
    },
    {
      "name": "lo",
      "type": "gauge",
      "value": null
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"delay_seconds NaN", "hi +Inf", "lo -Inf"} {
		if !strings.Contains(prom.String(), line+"\n") {
			t.Errorf("Prometheus output lacks %q:\n%s", line, prom.String())
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
