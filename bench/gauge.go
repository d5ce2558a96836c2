package bench

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"runtime"
)

// A gauge measures how fast the host is running this process right now. On
// a shared host the neighbours' use of the caches and memory slows
// allocation-heavy code by up to 1.8× for seconds at a time, while pure
// arithmetic barely slows, and CPU time does not leave that out as it does
// steal time. So the gauge times a fixed reference kernel — a small
// discrete-event simulation that allocates as it goes, as clusterq's own
// code does, but is part of the benchmark and never changes with clusterq —
// in a slice before every timed op and after the last, and each op's CPU
// time is scaled by how much slower than its reference time the kernel ran
// in the two slices around it. README.md gives the spreads with and without.
//
// A forced collection before and after each slice keeps the kernel's
// garbage out of the ops and the ops' out of the kernel, so both start each
// time from the same heap.
type gauge struct {
	slices []float64 // CPU ms of each slice, in order
	result float64   // the kernel's result, the same on every slice
}

// The kernel's size and reference time: refEvents events take about
// refSliceMS of CPU time on an idle 2.0 GHz Xeon vCPU, so scaled times read
// as CPU ms on such a host when nothing else runs on it.
const (
	refEvents  = 100000
	refSliceMS = 10.5
)

// slice runs the kernel once and records its CPU time.
func (g *gauge) slice() error {
	runtime.GC()
	c0 := cpuTime()
	v := kernel(refEvents)
	d := cpuTime() - c0
	runtime.GC()
	if len(g.slices) > 0 && v != g.result {
		return fmt.Errorf("gauge kernel returned %v, then %v: it must do the same work every time", g.result, v)
	}
	g.result = v
	g.slices = append(g.slices, ms(d))
	return nil
}

// scale returns x, measured between slices k and k+1, divided by how much
// slower than refSliceMS those two slices ran on average.
func (g *gauge) scale(x float64, k int) float64 {
	return x * refSliceMS / ((g.slices[k] + g.slices[k+1]) / 2)
}

// slowdown is the median slice's time over the reference time.
func (g *gauge) slowdown() float64 { return median(g.slices) / refSliceMS }

// kernel simulates n events of a single-server queue with three priority
// classes (Poisson arrivals at rate 1, exponential service at rate 1.25,
// non-preemptive), allocating every event and job, and returns the mean
// sojourn time. The seed is fixed: every call does exactly the same work.
func kernel(n int) float64 {
	r := rand.New(rand.NewPCG(1, 2))
	cal := &events{{t: r.ExpFloat64()}}
	var (
		queues [3][]*kernelJob
		busy   bool
		sum    float64
		done   int
	)
	for range n {
		e := heap.Pop(cal).(*kernelEvent)
		if e.job == nil {
			j := &kernelJob{arrived: e.t, work: r.ExpFloat64() / 1.25}
			c := r.IntN(len(queues))
			queues[c] = append(queues[c], j)
			heap.Push(cal, &kernelEvent{t: e.t + r.ExpFloat64()})
		} else {
			sum += e.t - e.job.arrived
			done++
			busy = false
		}
		for c := range queues {
			if busy || len(queues[c]) == 0 {
				continue
			}
			j := queues[c][0]
			queues[c] = queues[c][1:]
			heap.Push(cal, &kernelEvent{t: e.t + j.work, job: j})
			busy = true
		}
	}
	return sum / float64(done)
}

type kernelJob struct{ arrived, work float64 }

type kernelEvent struct {
	t   float64
	job *kernelJob // nil for an arrival
}

// events is the kernel's event calendar, a binary heap by time.
type events []*kernelEvent

func (h events) Len() int           { return len(h) }
func (h events) Less(i, j int) bool { return h[i].t < h[j].t }
func (h events) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *events) Push(x any)        { *h = append(*h, x.(*kernelEvent)) }
func (h *events) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
