package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/stats"
)

func quickCfg() Config { return Config{Quick: true} }

func TestAllExperimentsRun(t *testing.T) {
	// Every experiment must run to completion in quick mode and emit at
	// least one non-empty table. This is the smoke test that keeps the
	// whole harness wired together.
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: empty table %q", e.ID, tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("%s: ragged row in %q: %v", e.ID, tab.Title, row)
					}
				}
			}
		})
	}
}

// TestByID pins the registry: All lists E1…E23 once each and in index
// order, the order `clusterq -list` and `-run all` print, and ByID finds
// every entry under its own ID with its title.
func TestByID(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("All() has %d experiments, want 23", len(all))
	}
	for i, e := range all {
		if want := "E" + strconv.Itoa(i+1); e.ID != want {
			t.Errorf("All()[%d].ID = %q, want %q", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: empty title or nil Run", e.ID)
		}
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID || got.Title != e.Title {
			t.Errorf("ByID(%q) = %q %q, %v; want %q %q", e.ID, got.ID, got.Title, err, e.ID, e.Title)
		}
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunAndPrint(t *testing.T) {
	var buf bytes.Buffer
	e, err := ByID("E3")
	if err != nil {
		t.Fatal(err)
	}
	if err := RunAndPrint(e, quickCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "gold") {
		t.Errorf("unexpected output: %.200q", out)
	}
}

// TestAnalyticTablesMatchFullResults reruns at full fidelity the experiments
// whose tables hold no simulated or timed column, and requires each printed
// block to equal its section of the committed full_results.txt byte for
// byte. The E-tables are the behaviour contract; these eight check it in
// milliseconds.
func TestAnalyticTablesMatchFullResults(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "full_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, id := range []string{"E3", "E4", "E5", "E6", "E7", "E11", "E13", "E19"} {
		want, ok := section(text, id)
		if !ok {
			t.Errorf("%s: no section in full_results.txt", id)
			continue
		}
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := RunAndPrint(e, Config{}, &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Errorf("%s differs from full_results.txt:\ngot:\n%s\nwant:\n%s", id, got.String(), want)
		}
	}
}

// section returns experiment id's "=== id: ..." block of a suite report,
// through the blank line that ends its last table.
func section(report, id string) (string, bool) {
	start := strings.Index(report, "=== "+id+": ")
	if start < 0 {
		return "", false
	}
	s := report[start:]
	if end := strings.Index(s, "\n=== "); end >= 0 {
		s = s[:end+1]
	}
	return s, true
}

// TestQuickTablesMatchGolden runs every experiment in quick mode and
// requires its printed section to equal testdata/quick_results.txt byte for
// byte, so a change to any simulated table fails here. E9 and E17 print
// wall times and are left out. The golden is `clusterq -run all -quick`
// with those two sections removed. Each experiment runs twice, with one
// sweep worker per CPU and with a single worker, against the same section:
// a sweep's result may not depend on how its points were scheduled.
func TestQuickTablesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "quick_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, e := range All() {
		if e.ID == "E9" || e.ID == "E17" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want, ok := section(text, e.ID)
			if !ok {
				t.Fatalf("no %s section in quick_results.txt", e.ID)
			}
			for _, workers := range []int{0, 1} {
				cfg := quickCfg()
				cfg.Workers = workers
				var got bytes.Buffer
				if err := RunAndPrint(e, cfg, &got); err != nil {
					t.Fatal(err)
				}
				if got.String() == want {
					continue
				}
				g, w := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
				for i := 0; i < len(g) || i < len(w); i++ {
					var gl, wl string
					if i < len(g) {
						gl = g[i]
					}
					if i < len(w) {
						wl = w[i]
					}
					if gl != wl {
						t.Fatalf("%s (workers %d) differs from quick_results.txt at line %d:\ngot:  %q\nwant: %q", e.ID, workers, i+1, gl, wl)
					}
				}
			}
		})
	}
}

func TestE1ValidationAccuracy(t *testing.T) {
	// The headline claim: the analytic model tracks simulation. Even in
	// quick mode the worst per-class delay error across loads should stay
	// within 25% (full mode is far tighter; see EXPERIMENTS.md).
	worst, err := MaxValidationError(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.25 {
		t.Errorf("worst model-vs-sim delay error = %.1f%%", worst*100)
	}
	if worst == 0 {
		t.Error("suspiciously exact agreement; is the simulator running?")
	}
}

func TestE3PrioritySeparationShape(t *testing.T) {
	tables, err := runE3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// Delay columns: gold < silver < bronze in every row, and bronze grows
	// monotonically with load.
	prevBronze := 0.0
	for _, row := range rows {
		g, _ := strconv.ParseFloat(row[2], 64)
		s, _ := strconv.ParseFloat(row[3], 64)
		b, _ := strconv.ParseFloat(row[4], 64)
		if !(g < s && s < b) {
			t.Errorf("row %v: not priority-ordered", row)
		}
		if b < prevBronze {
			t.Errorf("bronze delay fell with load: %v", row)
		}
		prevBronze = b
	}
	// Saturation shape: the last bronze delay is much larger than the first.
	first, _ := strconv.ParseFloat(rows[0][4], 64)
	last, _ := strconv.ParseFloat(rows[len(rows)-1][4], 64)
	if last < 5*first {
		t.Errorf("bronze delay did not blow up toward saturation: %g → %g", first, last)
	}
}

func TestE5OptimizerDominatesBaseline(t *testing.T) {
	tables, err := runE5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	sawComparison := false
	for _, row := range tables[0].Rows {
		optD, err1 := strconv.ParseFloat(row[1], 64)
		baseD, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			continue // infeasible rows
		}
		sawComparison = true
		if optD > baseD*1.02 {
			t.Errorf("optimizer (%g) worse than baseline (%g) at budget %s", optD, baseD, row[0])
		}
	}
	if !sawComparison {
		t.Error("no feasible budget rows to compare")
	}
}

func TestE6OptimizerDominatesBaseline(t *testing.T) {
	tables, err := runE6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, row := range tables[0].Rows {
		optP, err1 := strconv.ParseFloat(row[1], 64)
		baseP, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		saw = true
		if optP > baseP*1.02 {
			t.Errorf("optimizer (%g W) worse than baseline (%g W) at bound %s", optP, baseP, row[0])
		}
	}
	if !saw {
		t.Error("no feasible bound rows to compare")
	}
}

func TestE7BronzeBindsWhenTight(t *testing.T) {
	tables, err := runE7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// The tightest bound row should list bronze among the binding classes.
	tightest := rows[0]
	if !strings.Contains(tightest[4], "bronze") && tightest[3] != "infeasible" {
		t.Errorf("tight bronze bound not binding: %v", tightest)
	}
	// Power must not increase as the bronze bound loosens.
	var prev float64 = 1e18
	for _, row := range rows {
		p, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			continue
		}
		if p > prev*1.03 {
			t.Errorf("power rose as bound loosened: %v", rows)
		}
		prev = p
	}
}

func TestE8GreedyCheapest(t *testing.T) {
	tables, err := runE8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	var greedy, uniform, prop float64 = -1, -1, -1
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(row[0], "greedy"):
			greedy = v
		case row[0] == "uniform":
			uniform = v
		case row[0] == "proportional":
			prop = v
		}
		// Every policy that produced a number must satisfy the model SLAs.
		if row[4] != "yes" {
			t.Errorf("%s allocation violates SLAs in the model: %v", row[0], row)
		}
	}
	if greedy < 0 {
		t.Fatal("greedy row missing")
	}
	if uniform > 0 && greedy > uniform {
		t.Errorf("greedy (%g) costs more than uniform (%g)", greedy, uniform)
	}
	if prop > 0 && greedy > prop*1.001 {
		t.Errorf("greedy (%g) costs more than proportional (%g)", greedy, prop)
	}
}

func TestE10DisciplineShape(t *testing.T) {
	tables, err := runE10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("expected 3 class rows, got %d", len(rows))
	}
	// Gold under NP must beat gold under FCFS (model columns 1 and 3).
	goldFCFS, _ := strconv.ParseFloat(rows[0][1], 64)
	goldNP, _ := strconv.ParseFloat(rows[0][3], 64)
	if !(goldNP < goldFCFS) {
		t.Errorf("priority did not help gold: FCFS %g vs NP %g", goldFCFS, goldNP)
	}
	// Bronze pays for it.
	bronzeFCFS, _ := strconv.ParseFloat(rows[2][1], 64)
	bronzeNP, _ := strconv.ParseFloat(rows[2][3], 64)
	if !(bronzeNP > bronzeFCFS) {
		t.Errorf("priority did not cost bronze: FCFS %g vs NP %g", bronzeFCFS, bronzeNP)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.AddRow(1.0, "x")
	tab.AddRow(0.000123456, 42)
	var buf bytes.Buffer
	if err := tab.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "0.000123") {
		t.Errorf("ascii output: %q", out)
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Errorf("csv output: %q", buf.String())
	}
}

func TestCellFormatting(t *testing.T) {
	cases := map[string]string{
		Cell(0.0):            "0",
		Cell("s"):            "s",
		Cell(42):             "42",
		Pct(0.0312):          "3.1%",
		PlusMinus(1.5, 0.25): "1.5 ±0.25",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
	if Cell(math.NaN()) != "-" {
		t.Error("NaN cell")
	}
	if Cell(math.Inf(1)) != "inf" {
		t.Error("Inf cell")
	}
}

func TestE21FailureValidationAccuracy(t *testing.T) {
	// The failure extension's accuracy claim: at mild degradation (A ≥ 0.9,
	// fast-switching repairs) the availability-weighted analytic model
	// tracks the breakdown-injected simulation within the same quick-mode
	// band E1 grants the failure-free model. Below that the approximation
	// is knowingly optimistic and no band is promised.
	worst, err := MaxFailureValidationError(quickCfg(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.25 {
		t.Errorf("worst model-vs-sim delay error at A ≥ 0.9 = %.1f%%", worst*100)
	}
	if worst == 0 {
		t.Error("suspiciously exact agreement; is the simulator injecting failures?")
	}
}

func TestSimEstimateRendering(t *testing.T) {
	with := stats.Estimate{Mean: 1.5, HalfW: 0.25}
	if got := SimEstimate(with); got != "1.5 ±0.25" {
		t.Errorf("SimEstimate with CI = %q", got)
	}
	// A missing interval must be flagged, not silently rendered as a bare
	// (seemingly validated) number.
	without := stats.Estimate{Mean: 1.5, HalfW: math.NaN()}
	if got := SimEstimate(without); got != "1.5 (no CI)" {
		t.Errorf("SimEstimate without CI = %q", got)
	}
	if got := SimEstimate(stats.Estimate{Mean: math.NaN()}); got != "-" {
		t.Errorf("SimEstimate NaN mean = %q", got)
	}
}
