package multi_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/sim/multi"
	"clusterq/internal/stats"
)

// fleetTier builds a one-tier cluster for a given "server generation":
// server count, speed and queueing discipline vary per replica.
func fleetTier(servers int, speed float64, disc queueing.Discipline) *cluster.Cluster {
	pm, _ := power.NewPowerLaw(100, 10, 2)
	return &cluster.Cluster{
		Tiers: []*cluster.Tier{{
			Name: "t0", Servers: servers, Speed: speed,
			Discipline: disc,
			Power:      pm,
			Demands:    []queueing.Demand{{Work: 1, CV2: 1}, {Work: 1.5, CV2: 2}},
		}},
		Classes: []cluster.Class{{Name: "hi", Lambda: 0.3}, {Name: "lo", Lambda: 0.4}},
	}
}

// heterogeneousFleet is the ≥3-replica mixed fleet the acceptance criteria
// name: one plain current-generation cluster, one older generation running
// the full failure/deadline/shedding pipeline, and one fast small cluster
// under a runtime DVFS controller — three different configurations, seeds
// and even horizons under one shared clock.
func heterogeneousFleet() []multi.Replica {
	return []multi.Replica{
		{
			Name:    "gen2-plain",
			Cluster: fleetTier(2, 1, queueing.NonPreemptive),
			Options: sim.Options{Horizon: 1500, Quantiles: []float64{0.9}},
			Seed:    101,
		},
		{
			Name:    "gen1-degraded",
			Cluster: fleetTier(3, 0.8, queueing.NonPreemptive),
			Options: sim.Options{
				Horizon:  1200,
				Failures: []*sim.FailureConfig{{MTBF: 60, MTTR: 12}},
				Deadlines: []*sim.DeadlineConfig{
					{Deadline: 10, MaxRetries: 1, RetryBackoff: 0.5},
					{Deadline: 15},
				},
				Shedding: &sim.SheddingConfig{Threshold: 0.9, Period: 25},
			},
			Seed: 202,
		},
		{
			Name:    "gen3-dvfs",
			Cluster: fleetTier(2, 1.6, queueing.PreemptiveResume),
			Options: sim.Options{
				Horizon:       1500,
				Controller:    sim.UtilizationPolicy{Target: 0.6},
				ControlPeriod: 25,
			},
			Seed: 303,
		},
	}
}

// hashResult digests a Result's numeric fields bit-exactly, mirroring the
// sim package's internal golden hasher ('x' float format + sha256).
func hashResult(res *sim.Result) string {
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
		put(res.Goodput[k].Mean)
		fmt.Fprintf(&sb, "c%d,t%d,r%d,a%d,s%d,",
			res.Completed[k], res.Timeouts[k], res.Retries[k], res.Abandoned[k], res.Shed[k])
		ps := make([]float64, 0, len(res.DelayQuantile[k]))
		for p := range res.DelayQuantile[k] {
			//lint:waive simdeterm reason="keys are sorted immediately below, so map order cannot leak" until=2027-08-01
			ps = append(ps, p)
		}
		sort.Float64s(ps)
		for _, p := range ps {
			put(p, res.DelayQuantile[k][p])
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
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

func fleetHashes(t *testing.T) []string {
	t.Helper()
	orch, err := multi.New(heterogeneousFleet())
	if err != nil {
		t.Fatal(err)
	}
	results, err := orch.Results()
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, len(results))
	for i, res := range results {
		hashes[i] = hashResult(res)
	}
	return hashes
}

// TestFleetDeterminism pins the acceptance criterion: a shared-clock run of
// three heterogeneous replicas is a pure function of its seeds — two
// identical fleets produce bit-identical per-replica hashes.
func TestFleetDeterminism(t *testing.T) {
	a := fleetHashes(t)
	b := fleetHashes(t)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("replica %d hash differs across identical fleet runs:\n got %s\nwant %s", i, b[i], a[i])
		}
	}
}

// TestFleetIdenticalAcrossGOMAXPROCS re-runs the fleet under different
// parallelism settings; the orchestrator is single-goroutine by
// construction, so scheduling must not be able to leak into the results.
func TestFleetIdenticalAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	base := fleetHashes(t)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := fleetHashes(t)
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("GOMAXPROCS=%d: replica %d hash drifted:\n got %s\nwant %s", procs, i, got[i], base[i])
			}
		}
	}
}

// TestFleetMatchesStandaloneRun pins non-interference: interleaving replicas
// under the shared clock must not perturb any of them — each replica's
// Result is bit-identical to running the same cluster, options and seed as a
// standalone single-replication sim.Run.
func TestFleetMatchesStandaloneRun(t *testing.T) {
	replicas := heterogeneousFleet()
	got := fleetHashes(t)
	for i, r := range replicas {
		o := r.Options
		o.Replications = 1
		o.Seed = r.Seed
		res, err := sim.Run(r.Cluster, o)
		if err != nil {
			t.Fatal(err)
		}
		if want := hashResult(res); got[i] != want {
			t.Errorf("replica %d (%s): fleet hash differs from standalone Run:\n got %s\nwant %s",
				i, r.Name, got[i], want)
		}
	}
}

// TestSharedClockOrdering pins the orchestrator's scheduling contract: the
// fleet's event times are processed in non-decreasing global order, and the
// shared clock never exceeds the largest replica horizon.
func TestSharedClockOrdering(t *testing.T) {
	orch, err := multi.New(heterogeneousFleet())
	if err != nil {
		t.Fatal(err)
	}
	maxHorizon := 0.0
	for i := 0; i < orch.Len(); i++ {
		if h := orch.Replication(i).Horizon(); h > maxHorizon {
			maxHorizon = h
		}
	}
	last := 0.0
	steps := 0
	seen := make(map[int]int)
	for {
		idx, et, ok := orch.ProcessNextEvent()
		if !ok {
			break
		}
		if et < last {
			t.Fatalf("step %d: event time went backwards (%g after %g) on replica %d", steps, et, last, idx)
		}
		last = et
		seen[idx]++
		steps++
	}
	if steps == 0 {
		t.Fatal("fleet processed no events")
	}
	for i := 0; i < orch.Len(); i++ {
		if seen[i] == 0 {
			t.Errorf("replica %d (%s) never advanced", i, orch.Name(i))
		}
	}
	if now := orch.Now(); now > maxHorizon {
		t.Errorf("shared clock %g exceeds the largest horizon %g", now, maxHorizon)
	}
	if orch.HasPendingEvents() {
		t.Error("drained fleet still reports pending events")
	}
}

// TestAdvanceToInterleavesReplicas drives the fleet in shared-clock slices
// and checks the slices partition the run: the slice-driven fleet finishes
// with the same per-replica hashes as the drained one.
func TestAdvanceToInterleavesReplicas(t *testing.T) {
	want := fleetHashes(t)

	// Each replica's flight recorder, drained in one go, is the reference
	// stream; after every sliced AdvanceTo the sliced fleet's recorders
	// must hold exactly its prefix up to that time.
	recorded := func() ([]multi.Replica, []*trace.Recorder) {
		reps := heterogeneousFleet()
		recs := make([]*trace.Recorder, len(reps))
		for i := range reps {
			recs[i] = trace.NewRecorder(1 << 16)
			reps[i].Options.Recorder = recs[i]
		}
		return reps, recs
	}
	reps, recs := recorded()
	drained, err := multi.New(reps)
	if err != nil {
		t.Fatal(err)
	}
	drained.Run()
	streams := make([][]trace.Event, len(recs))
	for i, rec := range recs {
		streams[i] = rec.Events()
	}

	reps, recs = recorded()
	orch, err := multi.New(reps)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 50.0; tt <= 1500; tt += 50 {
		orch.AdvanceTo(tt)
		if now := orch.Now(); now > tt {
			t.Fatalf("AdvanceTo(%g) let the shared clock reach %g", tt, now)
		}
		for i, rec := range recs {
			n := sort.Search(len(streams[i]), func(j int) bool { return streams[i][j].T > tt })
			if got := rec.Events(); len(got) != n {
				t.Fatalf("after AdvanceTo(%g) replica %d's recorder holds %d events, want %d", tt, i, len(got), n)
			}
		}
	}
	results, err := orch.Results()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if got := hashResult(res); got != want[i] {
			t.Errorf("replica %d: sliced advance drifted from drained run:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestSummarize checks the fleet rollup math on hand-built results.
func TestSummarize(t *testing.T) {
	mk := func(power, delay float64, completed int64) *sim.Result {
		return &sim.Result{
			TotalPower:    stats.Estimate{Mean: power},
			WeightedDelay: stats.Estimate{Mean: delay},
			Completed:     []int64{completed},
		}
	}
	s := multi.Summarize([]*sim.Result{mk(100, 2, 30), mk(50, 4, 10), nil})
	if s.TotalPower != 150 {
		t.Errorf("TotalPower = %g, want 150", s.TotalPower)
	}
	if s.Completed != 40 {
		t.Errorf("Completed = %d, want 40", s.Completed)
	}
	if want := (30.0*2 + 10.0*4) / 40.0; math.Abs(s.WeightedDelay-want) > 1e-12 {
		t.Errorf("WeightedDelay = %g, want %g", s.WeightedDelay, want)
	}
	if empty := multi.Summarize(nil); !math.IsNaN(empty.WeightedDelay) {
		t.Errorf("empty fleet WeightedDelay = %g, want NaN", empty.WeightedDelay)
	}
}

// TestNewRejectsBadReplica checks validation errors carry the replica label.
func TestNewRejectsBadReplica(t *testing.T) {
	if _, err := multi.New(nil); err == nil {
		t.Error("New(nil) accepted an empty fleet")
	}
	bad := []multi.Replica{{
		Name:    "broken",
		Cluster: fleetTier(2, 1, queueing.NonPreemptive),
		Options: sim.Options{Horizon: -1},
	}}
	_, err := multi.New(bad)
	if err == nil {
		t.Fatal("New accepted a negative horizon")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the failing replica", err)
	}
}

// funcWriter is an io.Writer whose dynamic type is not comparable.
type funcWriter func([]byte) (int, error)

func (f funcWriter) Write(p []byte) (int, error) { return f(p) }

// TestNewRejectsSharedObservers pins that a fleet, like sim.Run with several
// replications, refuses two replicas feeding one flight recorder or one
// trace writer — job ids repeat across replicas and buffered trace rows
// interleave — while a shared window set stays allowed.
func TestNewRejectsSharedObservers(t *testing.T) {
	pair := func(o sim.Options) []multi.Replica {
		o.Horizon = 200
		return []multi.Replica{
			{Name: "east", Cluster: fleetTier(2, 1, queueing.NonPreemptive), Options: o, Seed: 1},
			{Name: "west", Cluster: fleetTier(2, 1, queueing.NonPreemptive), Options: o, Seed: 2},
		}
	}
	for _, tc := range []struct {
		name string
		o    sim.Options
	}{
		{"recorder", sim.Options{Recorder: trace.NewRecorder(0)}},
		{"trace", sim.Options{Trace: &bytes.Buffer{}}},
	} {
		_, err := multi.New(pair(tc.o))
		if err == nil {
			t.Errorf("%s: New accepted two replicas sharing one %s", tc.name, tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "east") || !strings.Contains(err.Error(), "west") {
			t.Errorf("%s: error %q does not name both replicas", tc.name, err)
		}
	}

	// A non-comparable writer type cannot be compared, so it is let through
	// rather than panicking New.
	discard := funcWriter(func(p []byte) (int, error) { return len(p), nil })
	if _, err := multi.New(pair(sim.Options{Trace: discard})); err != nil {
		t.Errorf("non-comparable trace writer: %v", err)
	}
	// Distinct recorders and a shared window set are fine.
	win, err := window.NewSet(window.Config{Width: 50}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps := pair(sim.Options{Windows: win})
	reps[0].Options.Recorder = trace.NewRecorder(0)
	reps[1].Options.Recorder = trace.NewRecorder(0)
	orch, err := multi.New(reps)
	if err != nil {
		t.Fatalf("distinct recorders with a shared window set: %v", err)
	}
	if _, err := orch.Results(); err != nil {
		t.Fatal(err)
	}
}
