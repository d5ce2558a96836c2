package cluster

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

// sortedKeys returns m's keys in order, so seeds keep their numbering.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fuzzFinds are configs that once broke FuzzParseConfig's checks, each kept
// as a seed next to its fix.
var fuzzFinds = []string{
	// The mean service time Work/Speed overflowed to +Inf and
	// NewExponential panicked; Station.Validate now requires the first two
	// service moments to be positive and finite.
	`{"tiers":[{"name":"a","servers":1,"speed":1e-320,"discipline":"fcfs","power":{"type":"linear","idle":50,"slope":20},"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":0.5}]}`,
	// A class without traffic but with an overflowing second moment made
	// every delay 0·Inf = NaN.
	`{"tiers":[{"name":"a","servers":1,"speed":4,"discipline":"np","power":{"type":"linear","idle":50,"slope":20},"demands":[{"work":1,"cv2":1},{"work":1e308,"cv2":1}]}],"classes":[{"name":"x","lambda":1},{"name":"y","lambda":0}]}`,
	// An underflowing second moment made a multi-server tier's CV² 0/0.
	`{"tiers":[{"name":"a","servers":3,"speed":4,"discipline":"np","power":{"type":"linear","idle":50,"slope":20},"demands":[{"work":1e-300,"cv2":1}]}],"classes":[{"name":"x","lambda":6e300}]}`,
	// The total arrival rate overflowed, and the weighted delay was
	// Inf/Inf; Cluster.Validate now requires a finite total.
	`{"tiers":[{"name":"a","servers":1,"speed":4,"discipline":"fcfs","power":{"type":"linear","idle":50,"slope":20},"demands":[{"work":1,"cv2":1},{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":1e308},{"name":"y","lambda":1e308}]}`,
	// A saturated class beside a class without traffic: the weighted delay
	// was 0·Inf = NaN; MeanDelayAllClasses now skips classes without
	// traffic.
	`{"tiers":[{"name":"a","servers":1,"speed":1,"discipline":"np","power":{"type":"linear","idle":50,"slope":20},"demands":[{"work":1,"cv2":1},{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":2},{"name":"y","lambda":0}]}`,
	// Busy power below idle: +Inf static plus -Inf dynamic power was NaN.
	// buildPower rejects a negative linear slope and NewTable a busy power
	// below idle.
	`{"tiers":[{"name":"a","servers":2,"speed":4,"discipline":"np","power":{"type":"linear","idle":1e308,"slope":-1e308},"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":1}]}`,
	`{"tiers":[{"name":"a","servers":2,"speed":4,"discipline":"np","power":{"type":"table","idle":1e308,"speeds":[1],"busy_watts":[0]},"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":7.6}]}`,
	// 10⁸ servers made one evaluation take most of a second (the Erlang
	// formulas are linear in the count); Station.Validate now rejects
	// counts above queueing.MaxServers.
	`{"tiers":[{"name":"a","servers":100000000,"speed":4,"discipline":"fcfs","power":{"type":"linear","idle":50,"slope":20},"demands":[{"work":1,"cv2":1}]}],"classes":[{"name":"x","lambda":1}]}`,
}

// FuzzParseConfig feeds arbitrary bytes to ParseConfig. A config it accepts
// must evaluate without panicking and without a NaN delay, power or
// utilization; with positive traffic the weighted delay and the energy per
// job must not be NaN either. Evaluate may still refuse a valid config (a
// multi-server preemptive tier has no closed form), and SpeedBounds must
// cope with anything Validate passes.
func FuzzParseConfig(f *testing.F) {
	enterprise, err := os.ReadFile("../../testdata/enterprise.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{string(enterprise), sampleJSON, routingJSON, recurrentJSON,
		fmt.Sprintf(availabilityJSON, `"availability":0.9,`),
		fmt.Sprintf(availabilityJSON, `"mtbf":90,"mttr":10,`)}
	for _, name := range sortedKeys(parseErrorCases) {
		seeds = append(seeds, parseErrorCases[name])
	}
	for _, name := range sortedKeys(badAvailability) {
		seeds = append(seeds, fmt.Sprintf(availabilityJSON, badAvailability[name]))
	}
	for _, js := range append(seeds, fuzzFinds...) {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseConfig(data)
		if err != nil {
			return
		}
		c.SpeedBounds()
		m, err := Evaluate(c)
		if err != nil {
			return
		}
		for k, d := range m.Delay {
			if math.IsNaN(d) {
				t.Errorf("class %d delay is NaN", k)
			}
		}
		if math.IsNaN(m.TotalPower) {
			t.Error("total power is NaN")
		}
		for j, tm := range m.Tiers {
			if math.IsNaN(tm.Utilization) {
				t.Errorf("tier %d utilization is NaN", j)
			}
		}
		if c.TotalLambda() > 0 && (math.IsNaN(m.WeightedDelay) || math.IsNaN(m.EnergyPerJob)) {
			t.Errorf("weighted delay %g, energy per job %g with traffic %g",
				m.WeightedDelay, m.EnergyPerJob, c.TotalLambda())
		}
	})
}
