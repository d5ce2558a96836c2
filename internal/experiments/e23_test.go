package experiments

import "testing"

// TestE23ModelBeatsStatic pins the experiment's headline claim (and ISSUE
// 10's acceptance criterion): on at least one transient scenario the
// model-driven controller must beat the peak-provisioned static plan on
// energy at equal-or-better SLA misses.
func TestE23ModelBeatsStatic(t *testing.T) {
	rows, err := e23Rows(quickCfg())
	for _, r := range rows {
		extra := ""
		if r.model {
			extra = " " + r.stats.String()
		}
		t.Logf("%-12s %-8s power=%.1fW weighted=%.3fs misses=%d worst=%.2f%s",
			r.scenario, r.strategy, r.power, r.weighted, r.misses, r.worstFrac, extra)
	}
	if err != nil {
		t.Fatalf("e23Rows: %v", err)
	}
	if !e23ModelWins(rows) {
		t.Fatal("model controller beat the static plan on no scenario")
	}
}

// TestE23ModelBeatsStaticFullFidelity runs the same claim at full fidelity
// (the 60000 s horizon), where the control epoch stays at 200 s.
func TestE23ModelBeatsStaticFullFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity E23 runs nine 60000 s simulations")
	}
	rows, err := e23Rows(Config{})
	for _, r := range rows {
		t.Logf("%-12s %-8s power=%.1fW weighted=%.3fs misses=%d worst=%.2f",
			r.scenario, r.strategy, r.power, r.weighted, r.misses, r.worstFrac)
	}
	if err != nil {
		t.Fatalf("e23Rows: %v", err)
	}
	if !e23ModelWins(rows) {
		t.Fatal("model controller beat the static plan on no scenario")
	}
}
