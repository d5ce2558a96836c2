// Package obs is the observability substrate of clusterq: a lightweight
// metric registry (counters and gauges) with a lock-free hot path,
// time-series capture (Timeline), and exposition in both JSON and the
// Prometheus text format. It is stdlib-only, like the rest of the module.
//
// Two properties drive the design:
//
//   - Zero allocation on the hot path: Counter.Add and Gauge.Set never
//     allocate; registration (name lookup, slice growth) happens once up
//     front.
//   - Near-zero cost when disabled: every metric method is a no-op on a nil
//     receiver, and a nil *Registry hands out nil metrics, so instrumented
//     code needs no "is observability on?" branches of its own.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n (n < 0 is ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. The zero value reads as 0; a nil
// *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
)

func (k metricKind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

// metric is one named registry entry.
type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
}

// Registry is an ordered collection of named metrics. Registration
// (Counter/Gauge) is idempotent: asking twice for the same name and
// kind returns the same instance. A nil *Registry hands out nil metrics, so
// instrumentation wired to an optional registry costs (almost) nothing when
// observability is off.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// validName reports whether name fits the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup finds or creates the named entry; it panics on invalid names and on
// kind clashes, which are programming errors, not runtime conditions.
func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s",
				name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the named counter, creating it on first use. Nil registries
// return a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}
