package sim

// Per-replication free lists for the simulator's three transient object
// kinds. A replication of horizon T schedules O(λT) events, creates O(λT)
// jobs and O(λT) service runs; without recycling every one is a separate
// garbage-collected allocation and the event loop spends a large share of
// its time in the allocator. With the free lists, allocation is bounded by
// the replication's LIVE set (jobs in flight, events in the calendar, runs
// in service) — a constant in steady state — so the loop is allocation-free
// once warm.
//
// Recycling cannot perturb determinism: a recycled object is fully
// re-initialized before reuse, so the simulation's visible state is
// bit-identical to a run that allocated fresh objects. The pooled-golden-
// hash test in determinism_test.go pins this.
//
// Lifetime invariants (what makes recycling sound):
//
//   - event: owned by the calendar from schedule() until next() pops it or
//     cancel() takes it off. A popped event is recycled by the run loop after
//     the handler returns, a cancelled one at once. Its slot may stay in the
//     heap as the calendar's hole until a schedule refills it or a recycle,
//     peek or pop removes it; the calendar tracks the hole by slot, so the
//     event may be reused meanwhile. Handlers never retain events; a service
//     run's dep is the only stored reference, and it is read only while the
//     run is in service.
//   - serviceRun: exactly one departure event references each run, and the
//     run references it back (dep). A run is freed exactly once: when its
//     departure is handled (after bankSegment/dropRun), or when it is
//     cancelled — preemption, a breakdown victim, or a timeout in service —
//     which takes the departure off the calendar in the same step. A retune
//     keeps every run: it cancels the departure and schedules the new one
//     in the same step. No event ever references a cancelled run, so none
//     can reference a reused one. While in service a run records its slot,
//     its index in the station's running set; dropRun reads the slot and
//     panics unless the set holds the run there, so a run dropped twice, or
//     dropped at the wrong station, fails loudly instead of evicting
//     another run.
//   - job: recycled when the job leaves the system (exit, abandonment, or a
//     numerically empty routing entry row). No departure outlives its job.
//     Armed timeouts (the per-class FIFOs' entries and each FIFO's one head
//     event) can, and so can retry events in principle, so they carry the
//     job's id as a generation stamp (event.gen); freeJob zeroes the id,
//     and allocJob hands out a fresh one, so a stale stamp never matches
//     and the entry is dropped, or the handler bails, before touching
//     recycled state. While in service a job links to its run (job.run):
//     startService sets the link and dropRun clears it, so a job that is
//     waiting, backing off or recycled never links to a run.

// allocJob returns a zeroed job, reusing a recycled one when available.
func (s *simulator) allocJob() *job {
	if n := len(s.jobFree); n > 0 {
		j := s.jobFree[n-1]
		s.jobFree = s.jobFree[:n-1]
		*j = job{}
		return j
	}
	return &job{}
}

// freeJob recycles a job that has left the system. The id is zeroed
// immediately (not only on realloc) so a pending timeout/retry event whose
// generation stamp still names this job sees the mismatch even before the
// job is handed out again.
func (s *simulator) freeJob(j *job) {
	j.id = 0
	s.jobFree = append(s.jobFree, j)
}

// allocRun returns a zeroed service run, reusing a recycled one when
// available.
func (s *simulator) allocRun() *serviceRun {
	if n := len(s.runFree); n > 0 {
		r := s.runFree[n-1]
		s.runFree = s.runFree[:n-1]
		*r = serviceRun{}
		return r
	}
	return &serviceRun{}
}

// freeRun recycles a run whose departure event has been handled or
// cancelled.
func (s *simulator) freeRun(r *serviceRun) { s.runFree = append(s.runFree, r) }
