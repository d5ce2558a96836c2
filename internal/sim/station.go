package sim

import (
	"math"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/stats"
)

// job is one request flowing through the network.
type job struct {
	id         uint64
	class      int
	arrival    float64 // external arrival time
	routePos   int     // index into the class route (deterministic routing)
	cur        int     // current station (probabilistic routing)
	remaining  float64 // remaining WORK at the current station (preemption)
	enqueued   float64 // time it joined the current station (wait accounting)
	servedTime float64 // in-service time accumulated at the current station
	attempts   int     // retries consumed so far (deadline extension)
}

// serviceRun is one (possibly preempted) service occupancy of a server.
type serviceRun struct {
	job       *job
	start     float64 // when this run started
	cancelled bool    // the departure event is stale (preempted)
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
	samplers   []Sampler // per class: WORK distributions

	queues     []jobDeque    // per-class FIFO queues (priority order = index)
	fifo       jobDeque      // single queue under FCFS
	running    []*serviceRun // active service runs, ≤ servers
	runScratch []*serviceRun // spare backing array swapped in by setSpeed

	// Sleep-state extension (instant-off policy): idle servers power down
	// to sleepPower and pay a setup period (at busy power) to wake.
	sleepEnabled bool
	setupSampler Sampler
	sleepPower   float64
	settingUp    int // servers currently warming up

	// Failure extension: servers currently broken (fail-stop, drawing no
	// power) and the admission-control epoch's busy-server measurement
	// (only observed when shedding is enabled).
	failed      int
	shedEnabled bool
	shedBusy    stats.TimeWeighted

	// Plan-controller extension: servers administratively parked (powered
	// off, accepting no work). Shrinking is lazy — services already running
	// finish before the active pool contracts — so len(running) may
	// transiently exceed the active count.
	parked int

	// measurement
	busy      stats.TimeWeighted // number of busy servers over time
	powerTW   stats.TimeWeighted // instantaneous power draw over time
	epochBusy stats.TimeWeighted // busy servers since the last control epoch
	waitByCls []*stats.Welford   // waiting time per class at this station
	svcEnergy []float64          // dynamic energy per class (accumulated)
	servedCls []int64            // completions per class
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

// runOf returns the service run currently serving j, or nil.
func (s *simStation) runOf(j *job) *serviceRun {
	for _, r := range s.running {
		if r.job == j {
			return r
		}
	}
	return nil
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

// lowestPriorityRunning returns the run with the numerically largest class
// index (lowest priority), or nil when no server is busy.
func (s *simStation) lowestPriorityRunning() *serviceRun {
	var worst *serviceRun
	for _, r := range s.running {
		if worst == nil || r.job.class > worst.job.class {
			worst = r
		}
	}
	return worst
}

// dropRun removes a run from the running set.
func (s *simStation) dropRun(target *serviceRun) {
	for i, r := range s.running {
		if r == target {
			s.running[i] = s.running[len(s.running)-1]
			s.running = s.running[:len(s.running)-1]
			return
		}
	}
}

// observeBusy records the current busy-server count and instantaneous power,
// to be called after every change to the running set or the speed.
func (s *simStation) observeBusy(now float64) {
	b := float64(len(s.running))
	s.busy.Observe(now, b)
	s.epochBusy.Observe(now, b)
	s.powerTW.Observe(now, s.instPower())
	if s.shedEnabled {
		s.shedBusy.Observe(now, b)
	}
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
	s.busy.StartAt(now, float64(len(s.running)))
	s.powerTW.StartAt(now, s.instPower())
}
