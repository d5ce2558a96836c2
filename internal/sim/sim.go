package sim

import (
	"math"

	"clusterq/internal/cluster"
	"clusterq/internal/obs"
	"clusterq/internal/queueing"
	"clusterq/internal/stats"
)

// simulator holds the state of one replication.
type simulator struct {
	c        *cluster.Cluster
	cal      *calendar
	arrRNG   []*RNG // one arrival stream per class
	arrQ     []arrivalQueue
	svcRNG   []*RNG // one service stream per station
	stations []*simStation
	routes   [][]int

	warmup     float64
	horizon    float64
	warmupDone bool
	jobSeq     uint64
	// elidedAt is the earliest due time, at or after the warmup, of a dead
	// event (a cancelled departure or a timeout whose attempt ended) taken
	// off the calendar unpopped before warmupDone; +Inf when none. The
	// warmup reset lands on the first event due at or after the boundary,
	// dead or live, so it resets at elidedAt when that comes first.
	elidedAt float64

	// Dynamic power management extension: per-class arrival profiles
	// (constant when absent) and an optional runtime controller. A
	// per-station DVFS policy runs adapted into a plan controller (see
	// stationPlan), so there is one control path. planObs is the
	// controller's reusable epoch observation.
	profiles       []Profile
	planController PlanController
	planObs        PlanObservation
	controlPeriod  float64

	// Probabilistic routing: per-class Markov chains (nil = deterministic
	// route) and the RNG streams that drive next-hop sampling.
	routings []*queueing.ClassRouting
	routeRNG []*RNG

	// Failure extension (nil/zero unless the corresponding option is set):
	// per-tier breakdown configs and RNG streams, per-class deadline
	// configs, armed-timeout FIFOs and retry-backoff streams, the shedding
	// config, the current shed level, and the per-class degraded-mode
	// counters (post-warmup arrivals only).
	failures    []*FailureConfig
	failRNG     []*RNG
	deadlines   []*DeadlineConfig
	timeoutQ    []deque[timeoutEntry]
	retryRNG    []*RNG
	shedCfg     *SheddingConfig
	shedClasses int
	timeouts    []int64
	retries     []int64
	abandoned   []int64
	shed        []int64

	// Observers: the lifecycle tap that feeds the CSV trace, the event
	// counters, the flight recorder, the window sensors and the in-flight
	// counts (see tap.go), plus the probe config and the recording
	// replication's timeline (nil unless Options.Probe is set).
	tap   tap
	probe *Probe
	tl    *obs.Timeline

	delay     []*stats.Welford // end-to-end response per class
	delayQ    []*stats.QuantileSet
	completed []int64
	quantiles []float64

	// Free lists (see pool.go): recycled jobs and service runs, so the
	// steady-state event loop allocates nothing.
	jobFree []*job
	runFree []*serviceRun
}

// newSimulator builds one replication. record enables the probe's timeline
// capture (only the first replication records one; event counters run on
// every replication).
func newSimulator(c *cluster.Cluster, o Options, seed uint64, record bool) (*simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	root := NewRNG(seed)
	s := &simulator{
		c:              c,
		cal:            newCalendar(),
		warmup:         o.Warmup,
		warmupDone:     o.Warmup <= 0, // explicit zero warmup: never reset, measure from t=0
		elidedAt:       math.Inf(1),
		horizon:        o.Horizon,
		routes:         make([][]int, len(c.Classes)),
		quantiles:      o.Quantiles,
		planController: o.PlanController,
		controlPeriod:  o.ControlPeriod,
		tap:            newTap(o, len(c.Classes), record),
		probe:          o.Probe,
	}
	if o.Controller != nil {
		s.planController = &stationPlan{policy: o.Controller, speeds: make([]float64, len(c.Tiers))}
	}
	if s.probe != nil && record {
		s.tl = obs.NewTimeline(timelineSeriesNames(len(c.Tiers), len(c.Classes))...)
	}
	quantiles := o.Quantiles
	// Resolve arrival profiles: default every class to its constant rate.
	s.profiles = make([]Profile, len(c.Classes))
	for k, cl := range c.Classes {
		if o.Profiles != nil && o.Profiles[k] != nil {
			s.profiles[k] = o.Profiles[k]
		} else {
			s.profiles[k] = constantRate(cl.Lambda)
		}
	}
	for k := range c.Classes {
		s.routes[k] = c.Route(k)
	}
	s.routings = make([]*queueing.ClassRouting, len(c.Classes))
	if c.Routing != nil {
		copy(s.routings, c.Routing)
	}
	for range c.Classes {
		s.arrRNG = append(s.arrRNG, root.Split())
		s.routeRNG = append(s.routeRNG, root.Split())
	}
	for j, t := range c.Tiers {
		st := &simStation{
			idx:        j,
			servers:    t.Servers,
			minSpeed:   t.MinSpeed,
			maxSpeed:   t.MaxSpeed,
			discipline: t.Discipline,
			pm:         t.Power,
			queues:     make([]jobDeque, len(c.Classes)),
			runCls:     make([]int, len(c.Classes)),
			waitByCls:  make([]*stats.Welford, len(c.Classes)),
			svcEnergy:  make([]float64, len(c.Classes)),
			servedCls:  make([]int64, len(c.Classes)),
		}
		st.setLevels(t.Speed)
		// Controllers need a clamp range even when the tier left the DVFS
		// bounds unset.
		if st.minSpeed <= 0 {
			st.minSpeed = t.Speed / 4
		}
		if st.maxSpeed <= 0 {
			st.maxSpeed = t.Speed * 4
		}
		if o.Sleep != nil && o.Sleep[j] != nil {
			st.sleepEnabled = true
			st.setupSampler = samplerFor(o.Sleep[j].Setup)
			st.sleepPower = o.Sleep[j].SleepPower
		}
		for k := range c.Classes {
			st.waitByCls[k] = &stats.Welford{}
			// Work samplers reproduce the analytical demand shape.
			d := t.Demands[k]
			st.samplers = append(st.samplers, samplerFor(queueing.DistForCV2(d.Work, d.CV2)))
		}
		st.clock.p = st.instPower()
		st.clock.epochOn = s.planController != nil
		s.stations = append(s.stations, st)
		s.svcRNG = append(s.svcRNG, root.Split())
	}
	s.delay = make([]*stats.Welford, len(c.Classes))
	s.delayQ = make([]*stats.QuantileSet, len(c.Classes))
	s.completed = make([]int64, len(c.Classes))
	s.timeouts = make([]int64, len(c.Classes))
	s.retries = make([]int64, len(c.Classes))
	s.abandoned = make([]int64, len(c.Classes))
	s.shed = make([]int64, len(c.Classes))
	for k := range c.Classes {
		s.delay[k] = &stats.Welford{}
		s.delayQ[k] = stats.NewQuantileSet(quantiles...)
	}
	// Failure-extension streams are split ONLY when the feature is on, and
	// after every pre-existing split: a run with all three features off
	// consumes exactly the RNG stream sequence it always did, keeping
	// disabled output bit-identical (the golden-hash tests pin this).
	if o.Failures != nil {
		s.failures = o.Failures
		for range c.Tiers {
			s.failRNG = append(s.failRNG, root.Split())
		}
	}
	if o.Deadlines != nil {
		s.deadlines = o.Deadlines
		s.timeoutQ = make([]deque[timeoutEntry], len(c.Classes))
		for range c.Classes {
			s.retryRNG = append(s.retryRNG, root.Split())
		}
	}
	if o.Shedding != nil {
		s.shedCfg = o.Shedding
		for _, st := range s.stations {
			st.clock.shedOn = true
		}
	}
	// Prime the arrival machinery: per class, draw the first candidate time
	// — the same first draw the one-at-a-time generator made — then batch-
	// generate the first chunk of accepted arrivals (see refillArrivals) and
	// schedule the earliest. Thinning happens at generation time now, so the
	// calendar only ever carries accepted arrivals.
	s.arrQ = make([]arrivalQueue, len(c.Classes))
	for k := range c.Classes {
		if s.profiles[k].MaxRate() > 0 {
			s.arrQ[k].next = s.arrRNG[k].Exp(s.profiles[k].MaxRate())
			s.refillArrivals(k)
			s.cal.schedule(s.arrQ[k].pop(), evArrival, k, nil, 0, nil)
		}
	}
	// Prime the control loop.
	if s.planController != nil {
		s.cal.schedule(s.controlPeriod, evControl, 0, nil, 0, nil)
		s.planObs = PlanObservation{
			Stations: make([]Observation, len(s.stations)),
			Rates:    make([]float64, len(c.Classes)),
		}
	}
	// Prime the probe's sampling loop.
	if s.probe != nil {
		s.cal.schedule(s.probe.Period, evSample, 0, nil, 0, nil)
	}
	// Prime one breakdown candidate per failing tier (see handleBreakdown
	// for the thinning construction) and the admission-control epoch.
	if s.failures != nil {
		for j, fc := range s.failures {
			if fc == nil {
				continue
			}
			st := s.stations[j]
			s.cal.schedule(s.failRNG[j].Exp(float64(st.servers)/fc.MTBF), evBreakdown, 0, nil, j, nil)
		}
	}
	if s.shedCfg != nil {
		s.cal.schedule(s.shedCfg.Period, evShedEpoch, 0, nil, 0, nil)
	}
	return s, nil
}

// hasPendingEvents reports whether at least one event remains at or before
// the horizon.
func (s *simulator) hasPendingEvents() bool {
	t, ok := s.cal.peekTime()
	return ok && t <= s.horizon
}

// processNextEvent pops and dispatches exactly one event, returning false —
// without touching the calendar — when no event at or before bound remains.
// bound is the horizon, or AdvanceTo's earlier stop time; it must not exceed
// the horizon. It peeks before it pops: the first event past bound stays in
// the heap and the clock never commits to its time, so cal.now is bounded by
// the horizon for the replication's whole life (asserted by
// TestClockNeverExceedsHorizon). This is the engine's single step; run() and
// the exported stepped Replication are both thin loops over it.
func (s *simulator) processNextEvent(bound float64) bool {
	if t, ok := s.cal.peekTime(); !ok || t > bound {
		return false
	}
	e := s.cal.next()
	if !s.warmupDone && e.time >= s.warmup {
		s.endWarmup(math.Min(e.time, s.elidedAt))
	}
	switch e.kind {
	case evArrival:
		s.handleArrival(e)
	case evDeparture:
		s.handleDeparture(e)
	case evControl:
		s.handleControl()
	case evSetupDone:
		s.handleSetupDone(e)
	case evSample:
		s.handleSample()
	case evBreakdown:
		s.handleBreakdown(e)
	case evRepair:
		s.handleRepair(e)
	case evTimeout:
		s.handleTimeout(e)
	case evRetry:
		s.handleRetry(e)
	case evShedEpoch:
		s.handleShedEpoch()
	}
	// The handler has returned and nothing retains the event (see
	// pool.go): recycle it for the next schedule.
	s.cal.recycle(e)
	return true
}

// run executes the replication to the horizon.
func (s *simulator) run() {
	for s.processNextEvent(s.horizon) {
	}
}

// elide notes that a dead event due at t has been taken off the calendar
// unpopped (see elidedAt).
func (s *simulator) elide(t float64) {
	if !s.warmupDone && t >= s.warmup && t < s.elidedAt {
		s.elidedAt = t
	}
}

func (s *simulator) endWarmup(now float64) {
	s.warmupDone = true
	for _, st := range s.stations {
		st.resetStats(now)
	}
	for k := range s.delay {
		s.delay[k].Reset()
		s.delayQ[k] = stats.NewQuantileSet(s.quantiles...)
		s.completed[k] = 0
	}
}

func (s *simulator) handleArrival(e *event) {
	now := s.cal.now
	k := e.class
	// Schedule the next accepted arrival off the pregenerated ring, batch-
	// refilling it when drained (see refillArrivals — thinning against the
	// profile already happened at generation time, so there is no rejected-
	// candidate path here and the calendar round-trip per rejected candidate
	// is gone). Scheduling before any other work keeps the event sequence
	// numbering identical to the one-at-a-time generator's.
	q := &s.arrQ[k]
	if q.n == 0 {
		s.refillArrivals(k)
	}
	s.cal.schedule(q.pop(), evArrival, k, nil, 0, nil)

	// Admission control: the current shed level refuses the lowest
	// s.shedClasses classes before they enter (so they count as shed, not
	// as arrivals). One compare when shedding is idle or off.
	if s.shedClasses > 0 && k >= len(s.profiles)-s.shedClasses {
		s.emit(tkShed, now, k, 0, -1, 0)
		if now >= s.warmup {
			s.shed[k]++
		}
		return
	}

	s.jobSeq++
	j := s.allocJob()
	j.id, j.class, j.arrival = s.jobSeq, k, now
	s.emit(tkArrival, now, k, j.id, -1, 0)
	s.armDeadline(j, now)
	if r := s.routings[k]; r != nil {
		entry := s.sampleIndex(k, r.Entry)
		if entry < 0 {
			// Numerically empty entry distribution: the job never enters.
			s.emit(tkDropped, now, k, j.id, -1, 0)
			s.freeJob(j)
			return
		}
		s.deliverTo(j, entry, now)
		return
	}
	s.deliver(j, now)
}

// sampleIndex draws an index from a (sub)stochastic row using class k's
// routing stream; -1 means "none" (the residual mass, i.e. exit).
func (s *simulator) sampleIndex(k int, probs []float64) int {
	u := s.routeRNG[k].Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return -1
}

// observeStation builds one station's per-epoch controller observation.
func (s *simulator) observeStation(st *simStation, now float64) Observation {
	return Observation{
		Time:        now,
		Station:     st.idx,
		Utilization: st.upUtilization(st.clock.mean(&st.clock.epochBusy, st.clock.b, now)),
		QueueLen:    st.queueLen(),
		Speed:       st.speed,
		Servers:     st.servers,
		MinSpeed:    st.minSpeed,
		MaxSpeed:    st.maxSpeed,
	}
}

// maybeWake starts warming a sleeping server when there is more queued work
// than servers already warming up.
func (s *simulator) maybeWake(st *simStation, now float64) {
	if st.sleepingServers() > 0 && st.settingUp < st.queueLen() {
		s.emit(tkSetupBegin, now, -1, 0, st.idx, 0)
		st.settingUp++
		st.observeBusy(now) // power steps from sleep to setup level
		d := st.setupSampler.Sample(s.svcRNG[st.idx])
		s.cal.schedule(now+d, evSetupDone, 0, nil, st.idx, nil)
	}
}

// handleSetupDone puts a freshly warmed server to work, or straight back to
// sleep when the queue drained while it warmed up.
func (s *simulator) handleSetupDone(e *event) {
	now := s.cal.now
	st := s.stations[e.station]
	st.settingUp--
	s.emit(tkSetupDone, now, -1, 0, st.idx, 0)
	if next := st.nextWaiting(); next != nil {
		s.startService(st, next, now)
	} else {
		st.observeBusy(now) // back to sleep
	}
}

// setSpeed retunes a station mid-run: every in-flight service banks its
// segment at the old speed, then resumes at the new one with its departure
// rescheduled from the remaining work. Each run keeps its slot, so the
// running set is unchanged.
func (s *simulator) setSpeed(st *simStation, now, speed float64) {
	//lint:waive floateq reason="deliberate exact compare: skip the reschedule only when the controller hands back the identical speed" until=2027-08-01
	if speed == st.speed {
		return
	}
	s.emit(tkRetune, now, -1, 0, st.idx, speed)
	// Bank all segments at the old speed before switching.
	for _, run := range st.running {
		st.bankSegment(run, now)
		s.cancelDeparture(run)
	}
	st.setLevels(speed)
	for _, run := range st.running {
		run.start = now
		rem := run.job.remaining
		if rem < 1e-12 {
			rem = 1e-12
		}
		run.dep = s.cal.schedule(now+rem/speed, evDeparture, 0, run.job, st.idx, run)
	}
	st.observeBusy(now) // record the new power level
}

// deliver hands the job to the next station on its deterministic route.
func (s *simulator) deliver(j *job, now float64) {
	s.deliverTo(j, s.routes[j.class][j.routePos], now)
}

// deliverTo hands the job to a specific station, drawing a fresh work sample.
func (s *simulator) deliverTo(j *job, stIdx int, now float64) {
	st := s.stations[stIdx]
	j.cur = stIdx
	j.remaining = st.samplers[j.class].Sample(s.svcRNG[stIdx])
	j.enqueued = now
	j.servedTime = 0
	s.arriveAtStation(st, j, now)
}

func (s *simulator) arriveAtStation(st *simStation, j *job, now float64) {
	if st.sleepEnabled {
		// Instant-off: there are never awake idle servers; the job queues
		// and a sleeper starts warming up if one is available and not
		// already spoken for.
		st.enqueue(j, now)
		s.maybeWake(st, now)
		return
	}
	if st.freeServers() > 0 {
		s.startService(st, j, now)
		return
	}
	if st.discipline == queueing.PreemptiveResume {
		if victim := st.victimFor(j.class); victim != nil {
			s.preempt(st, victim, now)
			s.startService(st, j, now)
			return
		}
	}
	st.enqueue(j, now)
}

// cancelDeparture takes a run's pending departure off the calendar. The
// caller frees the run once it has finished reading it.
func (s *simulator) cancelDeparture(run *serviceRun) {
	s.elide(run.dep.time)
	s.cal.cancel(run.dep)
}

// preempt stops a running service, banks the finished work segment, and
// requeues the job at the head of its class line.
func (s *simulator) preempt(st *simStation, run *serviceRun, now float64) {
	s.emit(tkPreempt, now, run.job.class, run.job.id, st.idx, 0)
	s.cancelDeparture(run)
	st.bankSegment(run, now)
	if run.job.remaining < 1e-12 {
		run.job.remaining = 1e-12 // numerically vanished; finishes immediately on resume
	}
	st.dropRun(run)
	st.observeBusy(now)
	st.requeueFront(run.job)
	s.freeRun(run)
}

func (s *simulator) startService(st *simStation, j *job, now float64) {
	s.emit(tkStart, now, j.class, j.id, st.idx, 0)
	run := s.allocRun()
	run.job, run.start = j, now
	st.addRun(run)
	st.observeBusy(now)
	run.dep = s.cal.schedule(now+j.remaining/st.speed, evDeparture, 0, j, st.idx, run)
}

func (s *simulator) handleDeparture(e *event) {
	now := s.cal.now
	st := s.stations[e.station]
	j := e.job
	// Bank the final service segment (energy + in-service time), then
	// retire and recycle the run. Everything at the station that was not
	// in-service time was waiting, including gaps caused by preemption.
	st.bankSegment(e.run, now)
	st.dropRun(e.run)
	s.freeRun(e.run)
	st.observeBusy(now)

	wait := (now - j.enqueued) - j.servedTime
	if wait < 0 {
		wait = 0 // floating-point dust on uncontended visits
	}
	if j.arrival >= s.warmup {
		// Per-tier visit statistics apply the same arrival-time filter as
		// the end-to-end delays below: a job that arrived during the warmup
		// transient must not leak into steady-state tier stats just because
		// its visit completed after the warmup reset.
		st.waitByCls[j.class].Add(wait)
		st.servedCls[j.class]++
	}
	s.emit(tkVisitEnd, now, j.class, j.id, st.idx, 0)

	// Hand the freed server to the queue BEFORE routing the departing job
	// onward: a job feeding back to the same station must rejoin behind
	// the work already waiting, not grab the server it just released. The
	// free-server check only bites during a lazy shrink (a plan controller
	// parked servers while they were busy): the finished service then
	// retires its server instead of backfilling.
	if st.freeServers() > 0 {
		if next := st.nextWaiting(); next != nil {
			s.startService(st, next, now)
		}
	}

	// Route advance: probabilistic next hop under a routing chain,
	// positional advance along a deterministic route otherwise.
	done := false
	if r := s.routings[j.class]; r != nil {
		next := s.sampleIndex(j.class, r.Next[j.cur])
		if next >= 0 {
			s.deliverTo(j, next, now)
		} else {
			done = true
		}
	} else {
		j.routePos++
		if j.routePos < len(s.routes[j.class]) {
			s.deliver(j, now)
		} else {
			done = true
		}
	}
	if done {
		s.emit(tkExit, now, j.class, j.id, -1, now-j.arrival)
		if j.arrival >= s.warmup {
			// Only post-warmup arrivals count toward steady-state output.
			d := now - j.arrival
			s.delay[j.class].Add(d)
			s.delayQ[j.class].Add(d)
			s.completed[j.class]++
		}
		s.freeJob(j)
	}
}
