package sim

import (
	"errors"
	"math"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/stats"
)

// job is one request flowing through the network.
type job struct {
	id         uint64
	class      int
	arrival    float64     // external arrival time
	routePos   int         // index into the class route (deterministic routing)
	cur        int         // current station (probabilistic routing)
	remaining  float64     // remaining WORK at the current station (preemption)
	enqueued   float64     // time it joined the current station (wait accounting)
	servedTime float64     // in-service time accumulated at the current station
	attempts   int         // retries consumed so far (deadline extension)
	run        *serviceRun // the run serving the job; nil while it is not in service
}

// serviceRun is one (possibly preempted) service occupancy of a server.
type serviceRun struct {
	job   *job
	start float64 // when this run started
	dep   *event  // the scheduled departure that completes the run
	slot  int     // its index in the station's running set
}

// simStation is the runtime state of one tier.
type simStation struct {
	idx        int
	servers    int
	speed      float64 // written only by setLevels
	minSpeed   float64 // DVFS clamp for runtime controllers
	maxSpeed   float64
	discipline queueing.Discipline
	pm         power.Model
	busyW      float64   // per-server pm.BusyPower(speed), kept by setLevels
	idleW      float64   // per-server pm.IdlePower(speed), kept by setLevels
	samplers   []sampler // per class: WORK distributions

	queues  []jobDeque    // per-class FIFO queues (priority order = index)
	fifo    jobDeque      // single queue under FCFS
	running []*serviceRun // active service runs, ≤ servers
	runCls  []int         // running jobs per class

	// Sleep-state extension (instant-off policy): idle servers power down
	// to sleepPower and pay a setup period (at busy power) to wake.
	sleepEnabled bool
	setupSampler sampler
	sleepPower   float64
	settingUp    int // servers currently warming up

	// Failure extension: servers currently broken (fail-stop, drawing no
	// power).
	failed int

	// Plan-controller extension: servers administratively parked (powered
	// off, accepting no work). Shrinking is lazy — services already running
	// finish before the active pool contracts — so len(running) may
	// transiently exceed the active count.
	parked int

	// measurement
	clock     segClock         // busy-server and power integrals
	waitByCls []*stats.Welford // waiting time per class at this station
	svcEnergy []float64        // dynamic energy per class (accumulated)
	servedCls []int64          // completions per class
}

// setLevels moves the station to a new speed and caches the per-server busy
// and idle power there. The power model is a pure function of the speed, so
// it is evaluated once per speed change rather than on every event that
// re-reads the power draw.
func (s *simStation) setLevels(speed float64) {
	s.speed = speed
	s.busyW = s.pm.BusyPower(speed)
	s.idleW = s.pm.IdlePower(speed)
}

// instPower returns the station's instantaneous power at its current speed
// and server states. Without sleep, non-busy up servers idle and failed
// servers draw nothing; with sleep (never combined with failures) non-busy
// servers are either warming up (busy power, the standard assumption) or
// asleep.
func (s *simStation) instPower() float64 {
	b := float64(len(s.running))
	if !s.sleepEnabled {
		// Parked servers draw nothing; during a lazy shrink the still-
		// running services can outnumber the active pool, so the idle count
		// floors at zero instead of going negative.
		idle := float64(s.servers-s.failed-s.parked) - b
		if idle < 0 {
			idle = 0
		}
		return b*s.busyW + idle*s.idleW
	}
	su := float64(s.settingUp)
	sl := float64(s.servers) - b - su
	return (b+su)*s.busyW + sl*s.sleepPower
}

// sleepingServers returns the number of powered-down servers.
func (s *simStation) sleepingServers() int {
	return s.servers - len(s.running) - s.settingUp
}

// powerGap returns the busy/idle power difference at the current speed.
func (s *simStation) powerGap() float64 {
	return s.busyW - s.idleW
}

// bankSegment accounts the service segment of a run ending now: consumed
// work, in-service time, and dynamic energy at the CURRENT speed (callers
// must bank before changing the speed).
func (s *simStation) bankSegment(run *serviceRun, now float64) {
	seg := now - run.start
	if seg <= 0 {
		return
	}
	run.job.remaining -= seg * s.speed
	if run.job.remaining < 0 {
		run.job.remaining = 0
	}
	run.job.servedTime += seg
	s.svcEnergy[run.job.class] += s.powerGap() * seg
}

func (s *simStation) freeServers() int { return s.servers - s.failed - s.parked - len(s.running) }

// upServers is the capacity actually on the floor: configured servers minus
// those currently broken down or administratively parked.
func (s *simStation) upServers() int { return s.servers - s.failed - s.parked }

// upUtilization converts a mean busy-server level into a utilization of the
// UP servers — the denominator runtime sensors (the DVFS controller's epoch
// observation, the window utilization samples, the shedding epoch) must use.
// Dividing by the configured count instead understates load precisely while
// servers are failed; Result.Tiers deliberately keeps the configured-capacity
// denominator, which is the analytically comparable long-run view. A NaN
// mean (zero-length measurement span) falls back to the instantaneous busy
// count, and a station with every server down is maximally overloaded, not
// idle.
func (s *simStation) upUtilization(busyMean float64) float64 {
	up := s.upServers()
	if up <= 0 {
		return 1
	}
	if math.IsNaN(busyMean) {
		busyMean = float64(len(s.running))
	}
	return busyMean / float64(up)
}

// instUpUtilization is the instantaneous busy fraction of the up servers.
func (s *simStation) instUpUtilization() float64 {
	up := s.upServers()
	if up <= 0 {
		return 1
	}
	return float64(len(s.running)) / float64(up)
}

// enqueue adds a job to the station's waiting line at time now.
func (s *simStation) enqueue(j *job, now float64) {
	j.enqueued = now
	if s.discipline == queueing.FCFS {
		s.fifo.pushBack(j)
	} else {
		s.queues[j.class].pushBack(j)
	}
}

// nextWaiting pops the job that should be served next, or nil.
func (s *simStation) nextWaiting() *job {
	if s.discipline == queueing.FCFS {
		if s.fifo.len() == 0 {
			return nil
		}
		return s.fifo.popFront()
	}
	for k := range s.queues {
		if s.queues[k].len() > 0 {
			return s.queues[k].popFront()
		}
	}
	return nil
}

// requeueFront puts an interrupted (preempted or failed-over) job back at
// the head of its waiting line so it resumes before later arrivals of its
// class. Preemption only occurs under PreemptiveResume, but breakdowns
// interrupt service under any discipline, including FCFS's single line.
func (s *simStation) requeueFront(j *job) {
	if s.discipline == queueing.FCFS {
		s.fifo.pushFront(j)
		return
	}
	s.queues[j.class].pushFront(j)
}

// removeWaiting deletes j from its waiting line, preserving the order of the
// remaining jobs, and reports whether it was found. Timeouts are rare
// relative to arrivals, so the O(queue) scan does not weigh on the hot path.
func (s *simStation) removeWaiting(j *job) bool {
	if s.discipline == queueing.FCFS {
		return s.fifo.removeFirst(j)
	}
	return s.queues[j.class].removeFirst(j)
}

// addRun puts a run of a job into service: it takes the next slot of the
// running set, counts towards its class and becomes the job's run.
func (s *simStation) addRun(run *serviceRun) {
	run.slot = len(s.running)
	s.running = append(s.running, run)
	s.runCls[run.job.class]++
	run.job.run = run
}

// victimFor returns the run that an arrival of the given class evicts at a
// full preemptive-resume station: among the running jobs of lower priority,
// the first in slice order of the lowest-priority class, or nil when every
// running job has the arrival's priority or a higher one. The per-class
// counts settle whether there is a victim without a scan; the scan that
// finds it runs only when a preemption happens.
func (s *simStation) victimFor(class int) *serviceRun {
	for k := len(s.runCls) - 1; k > class; k-- {
		if s.runCls[k] == 0 {
			continue
		}
		for _, r := range s.running {
			if r.job.class == k {
				return r
			}
		}
	}
	return nil
}

// errRunNotHeld is dropRun's panic value, prebuilt so the hot path does not
// allocate.
var errRunNotHeld = errors.New("sim: dropRun of a run its slot does not hold")

// dropRun removes a run from the running set: the last run moves into its
// slot. The run must be in this station's set; dropping it twice, or
// dropping another station's run, would corrupt the set, so it panics.
func (s *simStation) dropRun(target *serviceRun) {
	i, last := target.slot, len(s.running)-1
	if i > last || s.running[i] != target {
		panic(errRunNotHeld)
	}
	moved := s.running[last]
	s.running[i] = moved
	moved.slot = i
	s.running = s.running[:last]
	s.runCls[target.job.class]--
	target.job.run = nil
}

// errClockBackwards is observeBusy's panic value: a prebuilt error, because
// formatting the offending times would allocate on the hot path.
var errClockBackwards = errors.New("sim: station clock went backwards")

// observeBusy closes the station clock's segment at now and opens the next
// with the current busy-server count and instantaneous power. It must be
// called after every change to the running set, the speed or any server
// count instPower reads, so between calls the clock's b and p equal
// len(running) and instPower() and readers may use them directly. Time never
// runs backwards in the event loop; a caller that makes it do so is a bug.
func (s *simStation) observeBusy(now float64) {
	c := &s.clock
	if now < c.t {
		panic(errClockBackwards)
	}
	d := now - c.t
	bd := c.b * d
	c.busy.fold(bd, c.b, c.t, now)
	if c.epochOn {
		c.epochBusy.fold(bd, c.b, c.t, now)
	}
	if c.shedOn {
		c.shedBusy.fold(bd, c.b, c.t, now)
	}
	c.power.fold(c.p*d, c.p, c.t, now)
	c.t, c.b, c.p = now, float64(len(s.running)), s.instPower()
}

// queueLen returns the number of waiting (not in-service) jobs.
func (s *simStation) queueLen() int {
	if s.discipline == queueing.FCFS {
		return s.fifo.len()
	}
	n := 0
	for k := range s.queues {
		n += s.queues[k].len()
	}
	return n
}

// resetStats clears measurement state at the end of the warmup period.
func (s *simStation) resetStats(now float64) {
	for _, w := range s.waitByCls {
		w.Reset()
	}
	for k := range s.svcEnergy {
		s.svcEnergy[k] = 0
		s.servedCls[k] = 0
	}
	s.clock.busy.restart(now)
	s.clock.power.restart(now)
}

// segClock integrates a station's two piecewise-constant signals, the number
// of busy servers and the power draw, on one clock. Both hold their values b
// and p from time t until the next observeBusy, which folds the elapsed segment
// into every live series at once: the segment length and the busy product
// are computed once rather than once per series.
//
// Each series restarts on its own schedule (warmup for busy and power, each
// control epoch for epochBusy, each shed epoch for shedBusy), and a restart
// may fall inside the current segment. The series then integrates from its
// own origin until its next fold, so every area and mean is the same
// floating-point operations, in the same order, as one accumulator per
// series that sees every observation would perform.
type segClock struct {
	t, b, p float64 // segment start, busy servers and power since t

	busy      segArea // busy servers since the warmup reset
	power     segArea // power draw since the warmup reset
	epochBusy segArea // busy servers since the last control epoch
	shedBusy  segArea // busy servers since the last shed epoch

	// Series only a controller or admission control reads are folded only
	// when one is attached.
	epochOn, shedOn bool
}

// segArea is one series' integral since its origin.
type segArea struct {
	area, origin float64
}

// restart empties the series and starts its span at now. The value it
// integrates from now on is the clock's current one.
func (a *segArea) restart(now float64) {
	a.area, a.origin = 0, now
}

// fold adds the segment [t, now] of value v, whose full area is seg, to the
// series. A series restarted after t covers only [origin, now].
func (a *segArea) fold(seg, v, t, now float64) {
	if a.origin > t {
		a.area += v * (now - a.origin)
		return
	}
	a.area += seg
}

// mean returns series a's time average over [origin, now], holding its
// current value v (the clock's b or p) over the open segment; NaN when the
// span is empty.
func (c *segClock) mean(a *segArea, v, now float64) float64 {
	if now <= a.origin {
		return math.NaN()
	}
	from := c.t
	if a.origin > from {
		from = a.origin
	}
	return (a.area + v*(now-from)) / (now - a.origin)
}
