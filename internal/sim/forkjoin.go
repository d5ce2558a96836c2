package sim

import (
	"fmt"

	"clusterq/internal/stats"
)

// SimulateForkJoin measures the mean response time of a k-queue fork-join
// system: Poisson(λ) jobs fork into k siblings, one per parallel FCFS M/M(μ)/1
// queue, and complete when the last sibling finishes. It is the ground truth
// the queueing.ForkJoinNelsonTantawi approximation is validated against.
//
// The function runs `reps` independent replications of `horizon` simulated
// seconds (10% warmup) in the calling goroutine — fork-join experiments
// parallelize across parameter points instead.
func SimulateForkJoin(k int, lambda, mu, horizon float64, reps int, seed uint64) (stats.Estimate, error) {
	if k < 1 || lambda < 0 || mu <= 0 || horizon <= 0 || reps < 1 {
		return stats.Estimate{}, fmt.Errorf("sim: invalid fork-join parameters k=%d λ=%g μ=%g horizon=%g reps=%d",
			k, lambda, mu, horizon, reps)
	}
	var acc stats.Welford
	var total int64
	for r := 0; r < reps; r++ {
		mean, n := forkJoinRep(k, lambda, mu, horizon, seed+uint64(r))
		if n > 0 {
			acc.Add(mean)
			total += n
		}
	}
	return stats.Estimate{
		Mean: acc.Mean(), HalfW: acc.CI(0.95), Level: 0.95,
		Samples: total, Batches: acc.Count(),
	}, nil
}

// fjJob tracks one forked job.
type fjJob struct {
	arrival float64
	pending int // siblings not yet finished
}

// forkJoinRep runs one replication on the simulator's event calendar and
// returns the mean post-warmup response and the sample count. An arrival is
// an evArrival event; the departure of queue q's head is an evDeparture with
// station q.
func forkJoinRep(k int, lambda, mu, horizon float64, seed uint64) (float64, int64) {
	rng := NewRNG(seed)
	warmup := horizon * 0.1

	cal := newCalendar()
	if lambda > 0 {
		cal.schedule(rng.Exp(lambda), evArrival, 0, nil, -1, nil)
	}

	queues := make([]deque[*fjJob], k) // FIFO per queue; head is in service
	var free []*fjJob                  // recycled jobs: live set bounds allocation
	var resp stats.Welford

	for !cal.empty() {
		e := cal.next()
		now, kind, q := e.time, e.kind, e.station
		cal.recycle(e)
		if now > horizon {
			break
		}
		if kind == evArrival {
			// Arrival: fork into every queue; start service where idle.
			cal.schedule(now+rng.Exp(lambda), evArrival, 0, nil, -1, nil)
			var j *fjJob
			if n := len(free); n > 0 {
				j, free = free[n-1], free[:n-1]
			} else {
				j = &fjJob{}
			}
			j.arrival, j.pending = now, k
			for i := range queues {
				queues[i].pushBack(j)
				if queues[i].len() == 1 {
					cal.schedule(now+rng.Exp(mu), evDeparture, 0, nil, i, nil)
				}
			}
			continue
		}
		// Departure of the head of queue q.
		j := queues[q].popFront()
		j.pending--
		if j.pending == 0 {
			if j.arrival >= warmup {
				resp.Add(now - j.arrival)
			}
			free = append(free, j) // last sibling done: no queue holds it
		}
		if queues[q].len() > 0 {
			cal.schedule(now+rng.Exp(mu), evDeparture, 0, nil, q, nil)
		}
	}
	return resp.Mean(), resp.Count()
}
