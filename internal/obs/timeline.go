package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Timeline is a column-oriented store of synchronously sampled time series:
// one shared time axis and one float64 column per named series. It is the
// output shape of the simulator's probe (queue lengths, utilization,
// instantaneous power over time) and is cheap to append to — one slice append
// per column per sample, no maps on the hot path.
//
// A Timeline is not safe for concurrent mutation; samplers own it until the
// run completes.
type Timeline struct {
	names []string
	index map[string]int
	times []float64
	cols  [][]float64
	buf   []float64 // reusable row for Sampler-style callers
}

// NewTimeline creates an empty timeline with the given series names. Names
// must be non-empty and unique.
func NewTimeline(names ...string) *Timeline {
	if len(names) == 0 {
		panic("obs: timeline needs at least one series")
	}
	t := &Timeline{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
		cols:  make([][]float64, len(names)),
		buf:   make([]float64, len(names)),
	}
	for i, n := range names {
		if n == "" {
			panic("obs: empty series name")
		}
		if _, dup := t.index[n]; dup {
			panic(fmt.Sprintf("obs: duplicate series name %q", n))
		}
		t.index[n] = i
	}
	return t
}

// Names returns the series names in column order.
func (t *Timeline) Names() []string {
	if t == nil {
		return nil
	}
	return append([]string(nil), t.names...)
}

// Len returns the number of samples recorded.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.times)
}

// Row returns a scratch row of len(Names()) the caller may fill and pass to
// Sample; reusing it keeps sampling allocation-free.
func (t *Timeline) Row() []float64 {
	if t == nil {
		return nil
	}
	return t.buf
}

// Sample appends one synchronized observation of every series at time now.
// len(values) must equal the series count; times must be non-decreasing.
func (t *Timeline) Sample(now float64, values []float64) {
	if t == nil {
		return
	}
	if len(values) != len(t.cols) {
		panic(fmt.Sprintf("obs: sample width %d for %d series", len(values), len(t.cols)))
	}
	if n := len(t.times); n > 0 && now < t.times[n-1] {
		panic(fmt.Sprintf("obs: sample time went backwards: %g < %g", now, t.times[n-1]))
	}
	t.times = append(t.times, now)
	for i, v := range values {
		t.cols[i] = append(t.cols[i], v)
	}
}

// Values returns the named series (the live backing slice; do not mutate),
// or nil when the name is unknown.
func (t *Timeline) Values(name string) []float64 {
	if t == nil {
		return nil
	}
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.cols[i]
}

// Mean returns the arithmetic mean of the named series — under the probe's
// uniform sampling this estimates the signal's time average. NaN when the
// series is unknown or empty.
func (t *Timeline) Mean(name string) float64 {
	if t == nil {
		return math.NaN()
	}
	vs := t.Values(name)
	if len(vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Max returns the largest value of the named series, or NaN when unknown or
// empty.
func (t *Timeline) Max(name string) float64 {
	if t == nil {
		return math.NaN()
	}
	vs := t.Values(name)
	if len(vs) == 0 {
		return math.NaN()
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// WriteCSV writes the timeline as CSV: a `time,<series...>` header followed
// by one row per sample. A nil timeline writes nothing.
func (t *Timeline) WriteCSV(w io.Writer) error {
	if t == nil {
		return nil
	}
	if _, err := io.WriteString(w, "time"); err != nil {
		return err
	}
	for _, n := range t.names {
		if _, err := fmt.Fprintf(w, ",%s", n); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for r := range t.times {
		if _, err := fmt.Fprintf(w, "%.9g", t.times[r]); err != nil {
			return err
		}
		for _, col := range t.cols {
			if _, err := fmt.Fprintf(w, ",%.9g", col[r]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// timelineJSON is the wire shape of a timeline.
type timelineJSON struct {
	Times  []float64    `json:"times"`
	Series []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// MarshalJSON renders the timeline as {"times": [...], "series": [{name,
// values}, ...]} preserving column order. A nil timeline renders as null.
func (t *Timeline) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	doc := timelineJSON{Times: t.times}
	for i, n := range t.names {
		doc.Series = append(doc.Series, seriesJSON{Name: n, Values: t.cols[i]})
	}
	return json.Marshal(doc)
}
