// Package multi orchestrates several simulator replicas under one shared
// clock: each replica is an independent stepped replication
// (sim.Replication) of its own cluster — its own configuration, server
// generation, DVFS class, failure regime and seed — and the orchestrator
// always advances the replica holding the globally earliest pending event.
// Events therefore interleave in global event-time order, exactly the
// decomposition a fleet-level controller or cross-cluster dispatcher needs:
// between any two steps, every replica's sensors are coherent as of the
// shared clock.
//
// Determinism: each replica's seed fully determines its event sequence, and
// ties between replicas break to the lowest index, so a fleet run is a pure
// function of its []Replica slice — same seeds, same hashes, regardless of
// GOMAXPROCS (the orchestrator is single-goroutine by construction).
package multi

import (
	"fmt"
	"math"
	"reflect"

	"clusterq/internal/cluster"
	"clusterq/internal/sim"
)

// Replica describes one cluster instance in the fleet.
type Replica struct {
	// Name labels the replica in results and errors (defaults to its index).
	Name string
	// Cluster is the replica's own configuration — fleets are heterogeneous,
	// so every replica may model a different tier layout, server generation
	// or DVFS class.
	Cluster *cluster.Cluster
	// Options configures the replica's single replication. Horizons may
	// differ per replica; a replica past its horizon simply stops
	// contributing events while the rest of the fleet runs on.
	Options sim.Options
	// Seed fixes the replica's RNG streams. Replicas with equal seeds and
	// equal configurations produce bit-identical results; give every replica
	// its own seed for independent sample paths.
	Seed uint64
}

// Orchestrator interleaves N stepped replications under one shared clock.
// Construct with New; methods must be called from one goroutine.
type Orchestrator struct {
	names   []string
	reps    []*sim.Replication
	results []*sim.Result
	err     error
}

// New validates every replica (the same validation chain sim.Run applies)
// and builds the fleet. At least one replica is required, and no two
// replicas may share a flight recorder or a trace writer.
func New(replicas []Replica) (*Orchestrator, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("multi: a fleet needs at least one replica")
	}
	o := &Orchestrator{
		names: make([]string, len(replicas)),
		reps:  make([]*sim.Replication, len(replicas)),
	}
	for i, r := range replicas {
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("replica%d", i)
		}
		if j, what := sharedObserver(replicas[:i], r.Options); j >= 0 {
			return nil, fmt.Errorf("multi: replicas %d (%s) and %d (%s) share one %s; give each replica its own",
				j, o.names[j], i, name, what)
		}
		rep, err := sim.NewReplication(r.Cluster, r.Options, r.Seed)
		if err != nil {
			return nil, fmt.Errorf("multi: replica %d (%s): %w", i, name, err)
		}
		o.names[i] = name
		o.reps[i] = rep
	}
	return o, nil
}

// sharedObserver returns the index of an earlier replica that shares o's
// flight recorder or trace writer, and which of the two it shares; -1 when
// none does. sim.Run refuses both for more than one replication, and a fleet
// is no different: job ids repeat across replicas, so one recorder would
// mismatch their spans, and two buffered trace writers on one io.Writer
// interleave torn rows. Window sets may be shared — a fleet-wide sensor is
// a legitimate use. Trace writers are compared only when their dynamic type
// is comparable, since == on a non-comparable interface value panics.
func sharedObserver(earlier []Replica, o sim.Options) (int, string) {
	traceComparable := o.Trace != nil && reflect.TypeOf(o.Trace).Comparable()
	for j, e := range earlier {
		if o.Recorder != nil && e.Options.Recorder == o.Recorder {
			return j, "flight recorder"
		}
		if traceComparable && e.Options.Trace == o.Trace {
			return j, "trace writer"
		}
	}
	return -1, ""
}

// Len returns the fleet size.
func (o *Orchestrator) Len() int { return len(o.reps) }

// Name returns replica i's label.
func (o *Orchestrator) Name(i int) string { return o.names[i] }

// Replication exposes replica i's stepped replication, for reading its
// sensors (Windows), clock, or horizon between steps. Stepping it directly
// is allowed but bypasses the shared-clock ordering; prefer the
// orchestrator's own step methods.
func (o *Orchestrator) Replication(i int) *sim.Replication { return o.reps[i] }

// Next reports which replica holds the globally earliest pending event and
// at what time; ok is false when every replica is drained to its horizon.
// Ties break to the lowest replica index, which keeps the interleaving — and
// therefore the whole fleet run — deterministic.
func (o *Orchestrator) Next() (idx int, t float64, ok bool) {
	idx = -1
	for i, rep := range o.reps {
		if !rep.HasPendingEvents() {
			continue
		}
		et, _ := rep.PeekNextEventTime()
		if idx < 0 || et < t {
			idx, t = i, et
		}
	}
	if idx < 0 {
		return 0, 0, false
	}
	return idx, t, true
}

// HasPendingEvents reports whether any replica still has an event at or
// before its horizon.
func (o *Orchestrator) HasPendingEvents() bool {
	for _, rep := range o.reps {
		if rep.HasPendingEvents() {
			return true
		}
	}
	return false
}

// ProcessNextEvent advances the replica with the globally earliest pending
// event by exactly one event, returning its index and the shared clock after
// the step; ok is false when the fleet is drained.
func (o *Orchestrator) ProcessNextEvent() (idx int, t float64, ok bool) {
	idx, t, ok = o.Next()
	if !ok {
		return 0, 0, false
	}
	o.reps[idx].ProcessNextEvent()
	return idx, t, true
}

// AdvanceTo processes, in global event-time order, every fleet event
// scheduled at or before t (each replica's own horizon still caps it), and
// returns how many events it processed. Like sim.Replication.AdvanceTo, on
// return every replica's flight recorder holds every event processed.
func (o *Orchestrator) AdvanceTo(t float64) int {
	n := 0
	for {
		_, et, ok := o.Next()
		if !ok || et > t {
			break
		}
		if _, _, ok := o.ProcessNextEvent(); !ok {
			break
		}
		n++
	}
	// No replica has an event left at or before t, so each AdvanceTo only
	// flushes the replica's recorder batch.
	for _, rep := range o.reps {
		rep.AdvanceTo(t)
	}
	return n
}

// Run drains the whole fleet to its horizons.
func (o *Orchestrator) Run() {
	for o.HasPendingEvents() {
		o.AdvanceTo(math.Inf(1))
	}
}

// Now is the shared clock: the latest event time any replica has committed
// to (0 before the first step), not counting dead events taken off the
// replicas' calendars (see sim.Replication.Now). Individual replicas may lag when their calendars go
// quiet; read Replication(i).Now() for a replica-local clock.
func (o *Orchestrator) Now() float64 {
	now := 0.0
	for _, rep := range o.reps {
		if t := rep.Now(); t > now {
			now = t
		}
	}
	return now
}

// Results finalizes every replica (draining any that still has pending
// events) and returns the per-replica results in fleet order. Like
// sim.Replication.Result, finalization seals the replicas; Results is
// memoized and may be called repeatedly.
func (o *Orchestrator) Results() ([]*sim.Result, error) {
	if o.results != nil || o.err != nil {
		return o.results, o.err
	}
	o.Run()
	results := make([]*sim.Result, len(o.reps))
	for i, rep := range o.reps {
		res, err := rep.Result()
		if err != nil {
			o.err = fmt.Errorf("multi: replica %d (%s): %w", i, o.names[i], err)
			return nil, o.err
		}
		results[i] = res
	}
	o.results = results
	return results, nil
}

// Summary is the fleet-level rollup of per-replica results.
type Summary struct {
	// TotalPower sums the replica mean powers (W).
	TotalPower float64
	// Completed sums post-warmup completions across replicas and classes.
	Completed int64
	// WeightedDelay is the completion-weighted mean end-to-end delay across
	// the whole fleet (NaN when nothing completed).
	WeightedDelay float64
}

// Summarize rolls per-replica results up to fleet totals.
func Summarize(results []*sim.Result) Summary {
	s := Summary{WeightedDelay: math.NaN()}
	var wNum, wDen float64
	for _, res := range results {
		if res == nil {
			continue
		}
		s.TotalPower += res.TotalPower.Mean
		var n int64
		for _, c := range res.Completed {
			n += c
		}
		s.Completed += n
		if n > 0 && !math.IsNaN(res.WeightedDelay.Mean) {
			wNum += float64(n) * res.WeightedDelay.Mean
			wDen += float64(n)
		}
	}
	if wDen > 0 {
		s.WeightedDelay = wNum / wDen
	}
	return s
}
