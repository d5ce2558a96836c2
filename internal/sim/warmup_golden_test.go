package sim

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/queueing"
)

// staleWarmupCluster is one preemptive-resume tier of two servers under two
// classes: high-priority arrivals preempt low-priority services, so
// cancelled departures are frequent.
func staleWarmupCluster() *cluster.Cluster {
	return oneTier(2, 1, queueing.PreemptiveResume,
		[]cluster.Class{{Name: "hi", Lambda: 0.5}, {Name: "lo", Lambda: 0.6}},
		[]queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}})
}

// staleWarmupDigest runs one replication per seed and digests the per-seed
// Result hashes in seed order.
func staleWarmupDigest(t *testing.T, c *cluster.Cluster, o Options, seeds int) string {
	t.Helper()
	var sb strings.Builder
	for seed := 1; seed <= seeds; seed++ {
		o.Seed = uint64(seed)
		res, err := Run(c, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&sb, "%d:%s\n", seed, hashResult(res, o.Quantiles))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// TestStaleEventWarmupGolden pins where the warmup reset lands when the
// first event at or after the warmup boundary is a dead one: a departure
// cancelled by preemption, a breakdown or a timeout, or a timeout whose
// attempt already left. The reset happens at that event's time, so the
// calendar must keep reporting it even though the event does no work.
// The hashes were recorded on the calendar that still popped every dead
// event; a short warmup puts the boundary among them on many seeds.
func TestStaleEventWarmupGolden(t *testing.T) {
	quantiles := []float64{0.9}
	deadlines := []*DeadlineConfig{
		{Deadline: 3, MaxRetries: 1, RetryBackoff: 0.5},
		{Deadline: 4, MaxRetries: 2, RetryBackoff: 1},
	}

	t.Run("boundary", func(t *testing.T) {
		o := Options{
			Horizon: 60, Warmup: 7.3, Replications: 1, Quantiles: quantiles,
			Deadlines: deadlines,
			Failures:  []*FailureConfig{{MTBF: 30, MTTR: 3}},
		}
		const golden = "d850bfbf3de3d0d16144c088259bf82752ab65f264adc25dfd21ed8cde3f1433"
		if h := staleWarmupDigest(t, staleWarmupCluster(), o, 120); h != golden {
			t.Errorf("Result digest over 120 seeds drifted:\n got %s\nwant %s", h, golden)
		}
	})

	// Degenerate: arrivals stop at t=5 and every job leaves long before its
	// deadline, so the only events in [warmup, horizon] are the timeouts of
	// attempts that already completed. No live event resets the warmup;
	// summarize's fallback must land the reset at the first dead one.
	t.Run("only-stale-after-warmup", func(t *testing.T) {
		burst := SquareWave{Low: 0, High: 0.8, Period: 1000, HighFraction: 0.005}
		o := Options{
			Horizon: 20, Warmup: 15, Replications: 1, Quantiles: quantiles,
			Profiles: []Profile{burst, burst},
			Deadlines: []*DeadlineConfig{
				{Deadline: 12, MaxRetries: 1},
				{Deadline: 11.5, MaxRetries: 1},
			},
		}
		const golden = "af0a915b4c152804eb5d1a1d7f05f80de69d431c403cc80c5712f90e83126ef1"
		if h := staleWarmupDigest(t, staleWarmupCluster(), o, 40); h != golden {
			t.Errorf("Result digest over 40 seeds drifted:\n got %s\nwant %s", h, golden)
		}
		// The case must really reach the fallback: on most seeds no live
		// event resets the warmup, and a dead one was due inside the window.
		if err := o.defaults(); err != nil {
			t.Fatal(err)
		}
		fallback := 0
		for seed := uint64(1); seed <= 40; seed++ {
			s, err := newSimulator(staleWarmupCluster(), o, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			s.run()
			if !s.warmupDone && s.elidedAt <= o.Horizon {
				fallback++
			}
		}
		if fallback < 20 {
			t.Errorf("only %d of 40 seeds end the warmup in summarize's fallback, want most", fallback)
		}
	})
}
