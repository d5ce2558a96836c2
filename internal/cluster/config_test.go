package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"clusterq/internal/queueing"
)

const sampleJSON = `{
  "tiers": [
    {
      "name": "web", "servers": 2, "speed": 4,
      "min_speed": 1, "max_speed": 8,
      "discipline": "nonpreemptive",
      "power": {"type": "powerlaw", "idle": 100, "kappa": 10, "gamma": 3},
      "cost_per_server": 1.5,
      "demands": [{"work": 1, "cv2": 1}, {"work": 2, "cv2": 0.5}]
    },
    {
      "name": "db", "servers": 1, "speed": 5,
      "discipline": "fcfs",
      "power": {"type": "linear", "idle": 50, "slope": 20},
      "demands": [{"work": 0.5, "cv2": 1}, {"work": 3, "cv2": 2}]
    }
  ],
  "classes": [
    {"name": "gold", "lambda": 1, "max_mean_delay": 3, "price_per_request": 2},
    {"name": "bronze", "lambda": 0.5, "percentile_delay": 10, "percentile": 0.95}
  ]
}`

func TestParseConfigRoundTrip(t *testing.T) {
	c, err := ParseConfig([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tiers) != 2 || len(c.Classes) != 2 {
		t.Fatalf("shape: %d tiers, %d classes", len(c.Tiers), len(c.Classes))
	}
	if c.Tiers[0].Discipline != queueing.NonPreemptive {
		t.Error("web discipline")
	}
	if c.Tiers[1].Discipline != queueing.FCFS {
		t.Error("db discipline")
	}
	if c.Tiers[0].Power.BusyPower(2) != 100+10*8 {
		t.Errorf("powerlaw busy = %g", c.Tiers[0].Power.BusyPower(2))
	}
	if c.Tiers[1].Power.BusyPower(2) != 90 {
		t.Errorf("linear busy = %g", c.Tiers[1].Power.BusyPower(2))
	}
	if c.Classes[1].SLA.Percentile != 0.95 {
		t.Error("percentile SLA lost")
	}
	if c.Tiers[0].Demands[1].Work != 2 || c.Tiers[0].Demands[1].CV2 != 0.5 {
		t.Error("demands lost")
	}
	// The parsed cluster must evaluate.
	if _, err := Evaluate(c); err != nil {
		t.Fatal(err)
	}
}

// parseErrorCases are configs ParseConfig must reject.
var parseErrorCases = map[string]string{
	"bad json":          `{`,
	"unknown field":     `{"tiers": [], "classes": [], "bogus": 1}`,
	"unknown disc":      `{"tiers":[{"name":"a","servers":1,"speed":1,"discipline":"lifo","power":{"type":"linear"},"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":0.1}]}`,
	"unknown power":     `{"tiers":[{"name":"a","servers":1,"speed":1,"discipline":"fcfs","power":{"type":"quantum"},"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":0.1}]}`,
	"negative slope":    `{"tiers":[{"name":"a","servers":1,"speed":1,"discipline":"fcfs","power":{"type":"linear","idle":5,"slope":-1},"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":0.1}]}`,
	"invalid structure": `{"tiers":[],"classes":[]}`,
}

func TestParseConfigErrors(t *testing.T) {
	for name, js := range parseErrorCases {
		if _, err := ParseConfig([]byte(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseConfigRejectsHostileServerCount: the shipped enterprise config
// with 10⁸ servers on one tier used to parse, and each evaluation then took
// most of a second. It must be refused with an error naming the bound.
func TestParseConfigRejectsHostileServerCount(t *testing.T) {
	data, err := os.ReadFile("../../testdata/enterprise.json")
	if err != nil {
		t.Fatal(err)
	}
	hostile := strings.Replace(string(data), `"servers": 2`, `"servers": 100000000`, 1)
	if hostile == string(data) {
		t.Fatal("no server count to replace")
	}
	_, err = ParseConfig([]byte(hostile))
	if want := fmt.Sprintf("MaxServers = %d", queueing.MaxServers); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("got %v, want an error naming %q", err, want)
	}
}

func TestParseDisciplineAliases(t *testing.T) {
	aliases := map[string]queueing.Discipline{
		"":           queueing.NonPreemptive,
		"np":         queueing.NonPreemptive,
		"FCFS":       queueing.FCFS,
		"fifo":       queueing.FCFS,
		"preemptive": queueing.PreemptiveResume,
		"pr":         queueing.PreemptiveResume,
	}
	for s, want := range aliases {
		got, err := parseDiscipline(s)
		if err != nil || got != want {
			t.Errorf("parseDiscipline(%q) = %v, %v", s, got, err)
		}
	}
}

func TestBuildPowerDefaults(t *testing.T) {
	// Empty type defaults to powerlaw with γ=3.
	m, err := buildPower(PowerConfig{Idle: 10, Kappa: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.BusyPower(2) != 10+8 {
		t.Errorf("default gamma busy = %g", m.BusyPower(2))
	}
	// Table model.
	tb, err := buildPower(PowerConfig{Type: "table", Idle: 5, Speeds: []float64{1, 2}, BusyW: []float64{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if tb.BusyPower(1.5) != 15 {
		t.Errorf("table busy = %g", tb.BusyPower(1.5))
	}
}

// routingJSON gives its one class a retry loop: one visit plus a retry with
// probability 0.25. recurrentJSON retries forever.
const (
	routingJSON = `{
	  "tiers": [
	    {"name": "a", "servers": 1, "speed": 4, "discipline": "fcfs",
	     "power": {"type": "linear", "idle": 10, "slope": 1},
	     "demands": [{"work": 1, "cv2": 1}]}
	  ],
	  "classes": [{"name": "x", "lambda": 1}],
	  "routing": [{"entry": [1], "next": [[0.25]]}]
	}`
	recurrentJSON = `{
	  "tiers": [
	    {"name": "a", "servers": 1, "speed": 4, "discipline": "fcfs",
	     "power": {"type": "linear", "idle": 10, "slope": 1},
	     "demands": [{"work": 1, "cv2": 1}]}
	  ],
	  "classes": [{"name": "x", "lambda": 1}],
	  "routing": [{"entry": [1], "next": [[1.0]]}]
	}`
)

func TestParseConfigWithRouting(t *testing.T) {
	c, err := ParseConfig([]byte(routingJSON))
	if err != nil {
		t.Fatal(err)
	}
	v := c.VisitRates(0)
	if !almostEq(v[0], 1/0.75, 1e-9) {
		t.Errorf("visit rate = %g, want %g", v[0], 1/0.75)
	}
	// Recurrent chain rejected at validation.
	if _, err := ParseConfig([]byte(recurrentJSON)); err == nil {
		t.Error("recurrent routing accepted")
	}
}

func TestConfigJSONSerializesBack(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(sampleJSON), &cfg); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseConfig(out)
	if err != nil {
		t.Fatalf("re-parsing marshaled config: %v", err)
	}
	if len(c2.Tiers) != 2 {
		t.Error("round trip lost tiers")
	}
}

// availabilityJSON is a one-tier config with a %s slot for availability
// fields; badAvailability holds the fills ParseConfig must reject.
const availabilityJSON = `{"tiers":[{"name":"a","servers":1,"speed":4,"discipline":"fcfs","power":{"type":"linear","idle":50,"slope":20},%s"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":0.5}]}`

var badAvailability = map[string]string{
	"both forms":   `"availability":0.9,"mtbf":90,"mttr":10,`,
	"mtbf alone":   `"mtbf":90,`,
	"bad mttr":     `"mtbf":90,"mttr":-1,`,
	"out of range": `"availability":1.5,`,
}

func TestParseConfigAvailability(t *testing.T) {
	base := availabilityJSON
	c, err := ParseConfig([]byte(fmt.Sprintf(base, `"availability":0.9,`)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Tiers[0].Availability != 0.9 {
		t.Errorf("availability = %g, want 0.9", c.Tiers[0].Availability)
	}

	c, err = ParseConfig([]byte(fmt.Sprintf(base, `"mtbf":90,"mttr":10,`)))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Tiers[0].Availability; math.Abs(got-0.9) > 1e-15 {
		t.Errorf("derived availability = %g, want 0.9", got)
	}

	for name, snippet := range badAvailability {
		if _, err := ParseConfig([]byte(fmt.Sprintf(base, snippet))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
