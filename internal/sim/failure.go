package sim

// Failure-aware simulation: per-tier server breakdown/repair processes,
// per-class request deadlines with retry-or-abandon semantics, and
// priority-aware admission control (load shedding). All three features are
// off by default and follow the same zero-value-means-off, validate-on-Run
// contract as the sleep extension; with every config nil the simulator's
// event stream — and therefore its output — is bit-identical to a build
// without this file (the RNG streams the features consume are only split
// when a feature is enabled, after all pre-existing splits).

import (
	"fmt"
	"math"
)

// FailureConfig parameterizes one tier's server breakdown/repair process.
// Each of the tier's servers, while up, fails after an exponential time with
// mean MTBF; a failed server is repaired after an exponential time with mean
// MTTR and rejoins the pool. Failures are fail-stop: a job in service on the
// failing server is interrupted mid-work and returned to the HEAD of its
// class queue (preemptive-resume semantics, reusing the preemption
// machinery), so it resumes before later arrivals of its class and loses no
// completed work. Failed servers draw no power.
type FailureConfig struct {
	// MTBF is one server's mean time between failures while up (required,
	// > 0, simulated seconds).
	MTBF float64
	// MTTR is one server's mean time to repair (required, > 0).
	MTTR float64
}

// Availability returns the steady-state fraction of time one server is up,
// A = MTBF/(MTBF+MTTR) — the quantity the analytical availability-degraded
// capacity approximation (queueing.MMcWithBreakdowns) consumes.
func (fc *FailureConfig) Availability() float64 {
	return fc.MTBF / (fc.MTBF + fc.MTTR)
}

// DeadlineConfig gives one class a per-attempt response-time deadline with a
// bounded retry budget. An attempt that has not left the system Deadline
// seconds after it entered is pulled out (from the queue, or mid-service);
// the request then either re-enters from the start of its route after an
// exponential backoff, or — once MaxRetries retries are spent — abandons.
type DeadlineConfig struct {
	// Deadline is the per-attempt response-time budget (required, > 0).
	Deadline float64
	// MaxRetries bounds how many times a timed-out request re-enters
	// (0 means abandon on the first timeout).
	MaxRetries int
	// RetryBackoff is the MEAN of the exponential backoff before the first
	// retry; it doubles with every subsequent attempt (exponential
	// backoff). 0 retries immediately.
	RetryBackoff float64
}

// SheddingConfig enables priority-aware admission control: every Period the
// simulator measures each tier's utilization of its UP servers; when the
// worst tier exceeds Threshold one more of the lowest-priority classes is
// shed (its new arrivals are refused at admission), and when it falls below
// resumeFrac·Threshold one class is re-admitted. Every class but class 0
// (highest priority) may be shed; class 0 never is.
type SheddingConfig struct {
	// Threshold is the worst-tier utilization above which shedding tightens
	// (required, in (0, 1]).
	Threshold float64
	// Period is the measurement epoch in simulated seconds (required,
	// finite, > 0).
	Period float64
}

// resumeFrac places the shedding hysteresis band: shedding relaxes once the
// worst tier's utilization falls below resumeFrac·Threshold.
const resumeFrac = 0.8

// validateFailures cross-checks the failure configs against the tier count
// and the sleep configs (a tier cannot combine instant-off sleep with
// breakdowns: both remove servers from the pool with conflicting semantics).
func (o *Options) validateFailures(numTiers int) error {
	if o.Failures == nil {
		return nil
	}
	if len(o.Failures) != numTiers {
		return fmt.Errorf("sim: %d failure configs for %d tiers", len(o.Failures), numTiers)
	}
	for j, fc := range o.Failures {
		if fc == nil {
			continue
		}
		if !(fc.MTBF > 0) || math.IsInf(fc.MTBF, 1) {
			return fmt.Errorf("sim: tier %d MTBF %g must be positive and finite", j, fc.MTBF)
		}
		if !(fc.MTTR > 0) || math.IsInf(fc.MTTR, 1) {
			return fmt.Errorf("sim: tier %d MTTR %g must be positive and finite", j, fc.MTTR)
		}
		if o.Sleep != nil && o.Sleep[j] != nil {
			return fmt.Errorf("sim: tier %d combines sleep and failures; pick one per tier", j)
		}
	}
	return nil
}

// validateDeadlines cross-checks the deadline configs against the class count.
func (o *Options) validateDeadlines(numClasses int) error {
	if o.Deadlines == nil {
		return nil
	}
	if len(o.Deadlines) != numClasses {
		return fmt.Errorf("sim: %d deadline configs for %d classes", len(o.Deadlines), numClasses)
	}
	for k, dc := range o.Deadlines {
		if dc == nil {
			continue
		}
		if !(dc.Deadline > 0) || math.IsInf(dc.Deadline, 1) {
			return fmt.Errorf("sim: class %d deadline %g must be positive and finite", k, dc.Deadline)
		}
		if dc.MaxRetries < 0 {
			return fmt.Errorf("sim: class %d negative retry budget %d", k, dc.MaxRetries)
		}
		if dc.RetryBackoff < 0 || math.IsInf(dc.RetryBackoff, 1) || math.IsNaN(dc.RetryBackoff) {
			return fmt.Errorf("sim: class %d invalid retry backoff %g", k, dc.RetryBackoff)
		}
	}
	return nil
}

// validateShedding checks the admission-control config.
func (o *Options) validateShedding() error {
	sc := o.Shedding
	if sc == nil {
		return nil
	}
	if !(sc.Threshold > 0) || sc.Threshold > 1 {
		return fmt.Errorf("sim: shedding threshold %g out of (0, 1]", sc.Threshold)
	}
	if !(sc.Period > 0) || math.IsInf(sc.Period, 1) {
		return fmt.Errorf("sim: shedding period %g must be positive and finite", sc.Period)
	}
	return nil
}

// timeoutEntry is one armed deadline waiting in its class's FIFO: the
// expiry, the calendar sequence number reserved when it was armed, and the
// attempt's job with its id as a generation stamp (see event.gen).
type timeoutEntry struct {
	time float64
	seq  uint64
	job  *job
	gen  uint64
}

// armDeadline arms the timeout for the attempt j starts at time now. Most
// attempts finish before their deadline, so the timeout does not go on the
// calendar: it joins its class's FIFO, and only the FIFO's head has an
// event. A class has one constant deadline and the clock is monotone, so
// the FIFO is already in (time, seq) order; its sequence number is
// reserved now, so the head event sorts exactly where a timeout scheduled
// at arming time would.
func (s *simulator) armDeadline(j *job, now float64) {
	if s.deadlines == nil {
		return
	}
	dc := s.deadlines[j.class]
	if dc == nil {
		return
	}
	q := &s.timeoutQ[j.class]
	q.pushBack(timeoutEntry{time: now + dc.Deadline, seq: s.cal.reserve(), job: j, gen: j.id})
	if q.len() == 1 {
		s.scheduleTimeoutHead(j.class)
	}
}

// scheduleTimeoutHead drops class k's armed timeouts whose attempt has
// already ended — the job's id no longer matches the stamp — and puts the
// first live one on the calendar under its reserved key.
func (s *simulator) scheduleTimeoutHead(k int) {
	q := &s.timeoutQ[k]
	for q.len() > 0 {
		h := q.front()
		if h.job.id == h.gen {
			s.cal.scheduleGen(h.time, h.seq, evTimeout, k, h.job, h.gen)
			return
		}
		s.elide(h.time)
		q.popFront()
	}
}

// handleBreakdown processes one breakdown CANDIDATE at a station. Candidates
// arrive at the superposition's peak rate servers/MTBF; thinning accepts a
// candidate with probability up/servers, which by Poisson superposition
// yields the exact aggregate failure process of the up servers only — the
// same idiom handleArrival uses for non-homogeneous arrivals. An accepted
// breakdown picks a victim uniformly among the up servers; a busy victim's
// job is interrupted fail-stop and requeued at the head of its class line.
func (s *simulator) handleBreakdown(e *event) {
	now := s.cal.now
	st := s.stations[e.station]
	fc := s.failures[st.idx]
	rng := s.failRNG[st.idx]
	// The candidate stream continues regardless of acceptance.
	s.cal.schedule(now+rng.Exp(float64(st.servers)/fc.MTBF), evBreakdown, 0, nil, st.idx, nil)
	up := st.servers - st.failed
	if up <= 0 || rng.Float64() >= float64(up)/float64(st.servers) {
		return
	}
	st.failed++
	s.emit(tkBreakdown, now, -1, 0, st.idx, float64(st.failed))
	// Victim: uniform over the up servers. The first len(running) of them
	// are busy; the remainder are idle and fail without interrupting work.
	if v := int(rng.Float64() * float64(up)); v < len(st.running) {
		run := st.running[v]
		// The victim's interruption is a preemption from the job's point of
		// view: work stops with work remaining.
		s.emit(tkVictim, now, run.job.class, run.job.id, st.idx, 0)
		s.cancelDeparture(run)
		st.bankSegment(run, now)
		if run.job.remaining < 1e-12 {
			run.job.remaining = 1e-12 // numerically vanished; finishes immediately on resume
		}
		st.dropRun(run)
		st.requeueFront(run.job)
		s.freeRun(run)
	}
	st.observeBusy(now) // capacity and power both stepped
	s.cal.schedule(now+rng.Exp(1/fc.MTTR), evRepair, 0, nil, st.idx, nil)
}

// handleRepair returns one failed server to the pool and puts it to work
// when jobs are waiting.
func (s *simulator) handleRepair(e *event) {
	now := s.cal.now
	st := s.stations[e.station]
	st.failed--
	s.emit(tkRepair, now, -1, 0, st.idx, float64(st.failed))
	st.observeBusy(now)
	if st.freeServers() > 0 {
		if next := st.nextWaiting(); next != nil {
			s.startService(st, next, now)
		}
	}
}

// handleTimeout expires one attempt's deadline. The job is pulled out of
// wherever it is — its waiting line, or mid-service (fail-stop on the
// request side: the partial work is discarded with the attempt) — and either
// re-enters from the start of its route after a backoff, or abandons once
// its retry budget is spent. The event is its class FIFO's head, so the
// FIFO advances first.
func (s *simulator) handleTimeout(e *event) {
	s.timeoutQ[e.class].popFront()
	s.scheduleTimeoutHead(e.class)
	j := e.job
	if j.id != e.gen {
		return // stale: the attempt ended after this head was scheduled
	}
	now := s.cal.now
	st := s.stations[j.cur]
	freedServer := false
	if run := j.run; run != nil {
		s.cancelDeparture(run)
		st.bankSegment(run, now) // energy already spent is spent
		st.dropRun(run)
		s.freeRun(run)
		st.observeBusy(now)
		freedServer = true
	} else if !st.removeWaiting(j) {
		// Defensive: the job is not at its recorded station. Unreachable
		// under the current event orderings; treat as stale rather than
		// corrupt the queues.
		return
	}
	s.emit(tkTimeout, now, j.class, j.id, st.idx, now-j.arrival)
	post := j.arrival >= s.warmup
	if post {
		s.timeouts[j.class]++
	}
	dc := s.deadlines[j.class]
	if j.attempts < dc.MaxRetries {
		j.attempts++
		s.emit(tkRetry, now, j.class, j.id, -1, float64(j.attempts))
		if post {
			s.retries[j.class]++
		}
		var backoff float64
		if dc.RetryBackoff > 0 {
			mean := dc.RetryBackoff * float64(uint64(1)<<uint(j.attempts-1))
			backoff = s.retryRNG[j.class].Exp(1 / mean)
		}
		s.cal.scheduleGen(now+backoff, s.cal.reserve(), evRetry, j.class, j, j.id)
	} else {
		s.emit(tkAbandon, now, j.class, j.id, -1, now-j.arrival)
		if post {
			s.abandoned[j.class]++
		}
		s.freeJob(j)
	}
	if freedServer && st.freeServers() > 0 {
		if next := st.nextWaiting(); next != nil {
			s.startService(st, next, now)
		}
	}
}

// handleRetry re-enters a timed-out job at the start of its route with a
// fresh deadline. The attempt draws fresh work samples on delivery, modeling
// a request whose partial server-side work is lost with the timed-out
// attempt.
func (s *simulator) handleRetry(e *event) {
	j := e.job
	if j.id != e.gen {
		return // defensive; retry events have no legitimate stale path
	}
	now := s.cal.now
	j.routePos = 0
	s.emit(tkResume, now, j.class, j.id, -1, 0)
	s.armDeadline(j, now)
	if r := s.routings[j.class]; r != nil {
		entry := s.sampleIndex(j.class, r.Entry)
		if entry < 0 {
			s.emit(tkDropped, now, j.class, j.id, -1, 0)
			s.freeJob(j)
			return
		}
		s.deliverTo(j, entry, now)
		return
	}
	s.deliver(j, now)
}

// handleShedEpoch re-decides the admission-control level from the worst
// tier's utilization of its UP servers over the elapsed epoch (failed
// servers are capacity the cluster does not have; shedding reacts to the
// capacity that is actually on the floor). One level is added or removed per
// epoch, with hysteresis between Threshold and resumeFrac·Threshold.
func (s *simulator) handleShedEpoch() {
	now := s.cal.now
	worst := 0.0
	for _, st := range s.stations {
		util := st.upUtilization(st.clock.mean(&st.clock.shedBusy, st.clock.b, now))
		if util > worst {
			worst = util
		}
		st.clock.shedBusy.restart(now)
	}
	switch {
	case worst > s.shedCfg.Threshold && s.shedClasses < len(s.c.Classes)-1:
		s.shedClasses++
		s.emit(tkShedLevel, now, -1, 0, -1, float64(s.shedClasses))
	case worst < resumeFrac*s.shedCfg.Threshold && s.shedClasses > 0:
		s.shedClasses--
		s.emit(tkShedLevel, now, -1, 0, -1, float64(s.shedClasses))
	}
	s.cal.schedule(now+s.shedCfg.Period, evShedEpoch, 0, nil, 0, nil)
}
