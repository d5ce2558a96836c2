package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestE12ReactiveBetweenStatics(t *testing.T) {
	tables, err := E12{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("expected 3 strategy rows, got %d", len(rows))
	}
	parsePM := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		if err != nil {
			t.Fatalf("cannot parse %q", cell)
		}
		return v
	}
	meanP := parsePM(rows[0][1])
	peakP := parsePM(rows[1][1])
	ctlP := parsePM(rows[2][1])
	meanD, _ := strconv.ParseFloat(rows[0][2], 64)
	peakD, _ := strconv.ParseFloat(rows[1][2], 64)
	ctlD, _ := strconv.ParseFloat(rows[2][2], 64)

	if !(peakP > meanP) {
		t.Errorf("peak provisioning should cost more power: %g vs %g", peakP, meanP)
	}
	if !(peakD < meanD) {
		t.Errorf("peak provisioning should be faster: %g vs %g", peakD, meanD)
	}
	// The reactive controller must land strictly between the statics on
	// delay while staying below peak power.
	if !(ctlD < meanD) {
		t.Errorf("reactive delay %g not better than static-mean %g", ctlD, meanD)
	}
	if !(ctlP < peakP*1.02) {
		t.Errorf("reactive power %g above static-peak %g", ctlP, peakP)
	}
}

func TestE13StaircaseMonotone(t *testing.T) {
	tables, err := E13{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	count := 0
	for _, row := range tables[0].Rows {
		c, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			continue
		}
		count++
		if c < prev {
			t.Errorf("cost fell with load: %v", tables[0].Rows)
		}
		prev = c
	}
	if count < 3 {
		t.Errorf("only %d feasible staircase points", count)
	}
}

func TestE14OptimalDominates(t *testing.T) {
	tables, err := E14{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	activePrev := 0
	for _, row := range tables[0].Rows {
		opt, err1 := strconv.ParseFloat(row[2], 64)
		prop, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		if opt > prop*(1+1e-9) {
			t.Errorf("optimal %g worse than proportional %g", opt, prop)
		}
		active, _ := strconv.Atoi(row[5])
		if active < activePrev {
			t.Errorf("active pools shrank with load: %v", tables[0].Rows)
		}
		activePrev = active
		// Simulation agrees with the analytic optimal delay.
		simD, err := strconv.ParseFloat(row[6], 64)
		if err == nil && opt > 0 {
			rel := (simD - opt) / opt
			if rel < -0.15 || rel > 0.15 {
				t.Errorf("sim %g far from analytic %g", simD, opt)
			}
		}
	}
}

func TestE15SleepCrossover(t *testing.T) {
	tables, err := E15{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// At the lightest load sleep must save power; at the heaviest it must
	// cost power (the parameters put the break-even inside the sweep).
	firstOn, _ := strconv.ParseFloat(rows[0][1], 64)
	firstSleep, _ := strconv.ParseFloat(rows[0][2], 64)
	lastOn, _ := strconv.ParseFloat(rows[len(rows)-1][1], 64)
	lastSleep, _ := strconv.ParseFloat(rows[len(rows)-1][2], 64)
	if !(firstSleep < firstOn) {
		t.Errorf("sleep not saving at light load: %g vs %g", firstSleep, firstOn)
	}
	if !(lastSleep > lastOn) {
		t.Errorf("sleep not losing at heavy load: %g vs %g", lastSleep, lastOn)
	}
	// Sleep delays always exceed always-on delays.
	for _, row := range rows {
		on, _ := strconv.ParseFloat(row[4], 64)
		sl, _ := strconv.ParseFloat(row[5], 64)
		if !(sl > on) {
			t.Errorf("sleep delay %g not above always-on %g", sl, on)
		}
	}
	// Break-even sits strictly inside (0, 1).
	be, _ := strconv.ParseFloat(tables[1].Rows[0][1], 64)
	if !(be > 0.02 && be < 0.98) {
		t.Errorf("break-even = %g", be)
	}
}

func TestE17DualMatchesAugLag(t *testing.T) {
	tables, err := E17{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("%d tables, want C2, C3a, C3b, C4 tuning and C3 tail", len(tables))
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			dualP, err1 := strconv.ParseFloat(row[2], 64)
			alP, err2 := strconv.ParseFloat(row[5], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: unparsable row %v", tab.Title, row)
			}
			// The dual is exact; the general solver can only tie or lose.
			if alP < dualP*0.995 {
				t.Errorf("%s: auglag %g beat the dual %g — separability assumption broken?", tab.Title, alP, dualP)
			}
			if dualP > alP*1.01 {
				t.Errorf("%s: dual %g clearly worse than auglag %g", tab.Title, dualP, alP)
			}
			dualEv, _ := strconv.ParseFloat(row[4], 64)
			alEv, _ := strconv.ParseFloat(row[7], 64)
			if !(dualEv*10 < alEv) {
				t.Errorf("%s: dual evals %g not far below auglag %g", tab.Title, dualEv, alEv)
			}
		}
	}
}

func TestE18RetryErosion(t *testing.T) {
	tables, err := E18{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// Bronze delay grows monotonically (and super-linearly) with the retry
	// probability; gold stays nearly flat; power grows.
	prevBronze, prevPower := 0.0, 0.0
	firstGold, lastGold := 0.0, 0.0
	for i, row := range rows {
		b, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			// "inf" row at high retry p: acceptable terminal state.
			if row[2] != "inf" {
				t.Fatalf("unparsable bronze delay %q", row[2])
			}
			continue
		}
		if b < prevBronze {
			t.Errorf("bronze delay fell with retries: %v", rows)
		}
		prevBronze = b
		g, _ := strconv.ParseFloat(row[4], 64)
		if i == 0 {
			firstGold = g
		}
		lastGold = g
		p, _ := strconv.ParseFloat(row[5], 64)
		if p < prevPower {
			t.Errorf("power fell with retries: %v", rows)
		}
		prevPower = p
	}
	if lastGold > firstGold*1.5 {
		t.Errorf("gold not shielded from the retry storm: %g → %g", firstGold, lastGold)
	}
}

func TestE19FleetGrowsWithEnergyPrice(t *testing.T) {
	tables, err := E19{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	prevServers, prevPower := 0, 1e18
	for _, row := range rows {
		parts := strings.Split(row[1], "/")
		if len(parts) != 3 {
			t.Fatalf("unparsable server column %q", row[1])
		}
		n := 0
		for _, p := range parts {
			v, err := strconv.Atoi(p)
			if err != nil {
				t.Fatal(err)
			}
			n += v
		}
		if n < prevServers {
			t.Errorf("fleet shrank as energy price rose: %v", rows)
		}
		prevServers = n
		p, _ := strconv.ParseFloat(row[3], 64)
		if p > prevPower*1.01 {
			t.Errorf("power rose with energy price: %v", rows)
		}
		prevPower = p
	}
	// The sweep must actually trigger at least one fleet change.
	first := rows[0][1]
	last := rows[len(rows)-1][1]
	if first == last {
		t.Errorf("fleet never changed across the price sweep: %v", rows)
	}
}

func TestE20ForkJoinShapes(t *testing.T) {
	tables, err := E20{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// NT vs sim within 12% in quick mode, monotone in k per load column.
	rows := tables[0].Rows
	nCols := len(tables[0].Columns)
	for col := 1; col+1 < nCols; col += 2 {
		prev := 0.0
		for _, row := range rows {
			nt, err1 := strconv.ParseFloat(row[col], 64)
			simV, err2 := strconv.ParseFloat(row[col+1], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("unparsable row %v", row)
			}
			if nt < prev {
				t.Errorf("NT response fell with k: %v", rows)
			}
			prev = nt
			// Quick-mode horizons are short; heavy-load FJ estimates
			// carry real variance, so this is a sanity band, not the
			// few-percent claim (which E20's full run substantiates).
			if rel := (simV - nt) / nt; rel < -0.25 || rel > 0.25 {
				t.Errorf("col %d: sim %g vs NT %g", col, simV, nt)
			}
		}
	}
	// Penalty table: monotone in k, decreasing in load for k>1.
	pen := tables[1].Rows
	last := pen[len(pen)-1]
	lo, _ := strconv.ParseFloat(last[1], 64)
	hi, _ := strconv.ParseFloat(last[3], 64)
	if !(hi < lo) {
		t.Errorf("penalty did not shrink with load: %v", last)
	}
}

func TestE16TailPremiumPositive(t *testing.T) {
	tables, err := E16{}.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, row := range tables[0].Rows {
		meanP, err1 := strconv.ParseFloat(row[1], 64)
		tailP, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		saw = true
		if tailP < meanP*0.999 {
			t.Errorf("tail bound cheaper than mean bound: %g vs %g", tailP, meanP)
		}
		// The achieved model p95 must respect the bound X.
		x, _ := strconv.ParseFloat(row[0], 64)
		q, err := strconv.ParseFloat(row[4], 64)
		if err == nil && q > x*1.01 {
			t.Errorf("achieved p95 %g exceeds bound %g", q, x)
		}
	}
	if !saw {
		t.Error("no feasible tail rows")
	}
}
