package sim

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

// TestResultIdenticalAcrossGOMAXPROCS pins the simulator's bit-reproducibility
// contract: replications run concurrently, but each replication's seed fully
// determines its output, so the aggregated Result must hash identically no
// matter how much parallelism the runtime grants.
func TestResultIdenticalAcrossGOMAXPROCS(t *testing.T) {
	classes := []cluster.Class{{Name: "hi", Lambda: 0.3}, {Name: "lo", Lambda: 0.4}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}}
	c := oneTier(2, 1, queueing.NonPreemptive, classes, demands)
	quantiles := []float64{0.9, 0.95}
	opts := Options{
		Horizon:      3000,
		Replications: 6,
		Seed:         42,
		Quantiles:    quantiles,
		Probe:        &Probe{Period: 10},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	hashes := make(map[int]string)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(c, opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		hashes[procs] = hashResult(res, quantiles)
	}

	base := hashes[1]
	for _, procs := range []int{2, 4} {
		if hashes[procs] != base {
			t.Errorf("Result hash differs: GOMAXPROCS=1 %s vs GOMAXPROCS=%d %s",
				base, procs, hashes[procs])
		}
	}
}

// TestPooledCalendarGoldenHash pins the free-list refactor's central claim:
// recycling events, jobs, and service runs must not change a single bit of
// any Result. The golden hashes below were recorded on the UNPOOLED
// simulator (container/heap calendar, fresh allocation per event/job/run)
// at the same seeds, immediately after the warmup/stats bugfixes landed. If
// either hash drifts, pooling has leaked state between recycled objects —
// fail loudly, do not re-record without understanding why.
func TestPooledCalendarGoldenHash(t *testing.T) {
	classes := []cluster.Class{{Name: "hi", Lambda: 0.3}, {Name: "lo", Lambda: 0.4}}
	demands := []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}}
	quantiles := []float64{0.9, 0.95}

	// The subtest is named after the one calendar, the binary heap.
	t.Run("heap", func(t *testing.T) {
		// Non-preemptive two-server station with probe counters attached:
		// exercises arrival/start/visit/exit recycling plus the probe path.
		np := oneTier(2, 1, queueing.NonPreemptive, classes, demands)
		resNP, err := Run(np, Options{
			Horizon:      3000,
			Replications: 6,
			Seed:         42,
			Quantiles:    quantiles,
			Probe:        &Probe{Period: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		const goldenNP = "2931bffdb52d5f3373575a5897bf6cf450f89930c84b7a6f1354b1f2b15809ef"
		if h := hashResult(resNP, quantiles); h != goldenNP {
			t.Errorf("non-preemptive Result hash drifted from the unpooled golden:\n got %s\nwant %s", h, goldenNP)
		}

		// Preemptive-resume under a DVFS controller: exercises the cancelled-
		// run paths (preempt and retune both remove the departure from the
		// heap in place and free its run at once).
		pr := oneTier(2, 1, queueing.PreemptiveResume, classes, demands)
		resPR, err := Run(pr, Options{
			Horizon: 2000, Replications: 3, Seed: 7, Quantiles: quantiles,
			Controller: UtilizationPolicy{Target: 0.6}, ControlPeriod: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		const goldenPR = "38b43cd3bc675302a8eca783d4ef1ac9b0a9948eaf2635c14c8a46b48560d59d"
		if h := hashResult(resPR, quantiles); h != goldenPR {
			t.Errorf("preemptive-resume Result hash drifted from the unpooled golden:\n got %s\nwant %s", h, goldenPR)
		}
	})
}

// hashResult digests every numeric field of a Result bit-exactly ('x' format
// preserves the full float bit pattern; a tolerance would hide real drift).
func hashResult(res *Result, quantiles []float64) string {
	var sb strings.Builder
	put := func(vals ...float64) {
		for _, v := range vals {
			sb.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
			sb.WriteByte(',')
		}
	}
	for k := range res.Delay {
		put(res.Delay[k].Mean, res.Delay[k].HalfW)
		put(res.EnergyPerRequest[k].Mean, res.EnergyPerRequest[k].HalfW)
		fmt.Fprintf(&sb, "c%d,", res.Completed[k])
		for _, p := range quantiles {
			put(res.DelayQuantile[k][p])
		}
	}
	put(res.WeightedDelay.Mean, res.WeightedDelay.HalfW)
	put(res.TotalPower.Mean, res.TotalPower.HalfW)
	for _, tr := range res.Tiers {
		sb.WriteString(tr.Name)
		put(tr.Utilization.Mean, tr.Utilization.HalfW)
		put(tr.Power.Mean, tr.Power.HalfW)
		for _, w := range tr.WaitByClass {
			put(w.Mean, w.HalfW)
		}
	}
	names := make([]string, 0, len(res.EventCounts))
	for name := range res.EventCounts {
		//lint:waive simdeterm reason="keys are sorted immediately below, so map order cannot leak" until=2027-08-01
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s=%d,", name, res.EventCounts[name])
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}
