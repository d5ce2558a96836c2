package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Snapshot is the point-in-time state of one metric, shaped for JSON
// marshalling and plotting front-ends.
type Snapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Type string `json:"type"` // "counter", "gauge" or "histogram"
	// Value holds the counter or gauge reading (absent for histograms).
	Value float64 `json:"value"`
	// Histogram-only fields: per-bucket upper bounds and counts (overflow
	// bucket last, with no bound), plus the observation sum and count.
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Count  int64     `json:"count,omitempty"`
}

// Snapshot captures every registered metric in registration order.
func (r *Registry) Snapshot() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.order...)
	r.mu.Unlock()

	out := make([]Snapshot, 0, len(metrics))
	for _, m := range metrics {
		s := Snapshot{Name: m.name, Help: m.help, Type: m.kind.String()}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.c.Value())
		case kindGauge:
			s.Value = m.g.Value()
		case kindHistogram:
			s.Bounds = m.h.Bounds()
			s.Counts = m.h.BucketCounts()
			s.Sum = m.h.Sum()
			s.Count = m.h.Count()
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON writes the registry as a JSON document {"metrics": [...]} with
// one Snapshot per metric. A nil registry writes nothing.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []Snapshot `json:"metrics"`
	}{Metrics: r.Snapshot()})
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE comment lines followed by samples, with
// histogram buckets expanded to cumulative `le`-labelled series. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, s := range r.Snapshot() {
		if s.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type); err != nil {
			return err
		}
		var err error
		switch s.Type {
		case "histogram":
			cum := int64(0)
			for i, c := range s.Counts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = formatFloat(s.Bounds[i])
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, le, cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", s.Name, formatFloat(s.Sum)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", s.Name, s.Count)
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteMetricsFile writes the registry to path: Prometheus text when the
// path ends in .prom or .txt, JSON otherwise. A non-nil timeline joins the
// JSON document as a second top-level section, {"metrics": [...],
// "timeline": {...}}; Prometheus text is a point-in-time format, so it
// leaves the timeline out.
func WriteMetricsFile(path string, reg *Registry, tl *Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Safety net for early error returns; the success path closes (and
	// checks) explicitly below.
	defer func() { _ = f.Close() }()
	w := bufio.NewWriter(f)
	switch {
	case strings.HasSuffix(path, ".prom") || strings.HasSuffix(path, ".txt"):
		err = reg.WritePrometheus(w)
	case tl == nil:
		err = reg.WriteJSON(w)
	default:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(struct {
			Metrics  []Snapshot `json:"metrics"`
			Timeline *Timeline  `json:"timeline"`
		}{Metrics: reg.Snapshot(), Timeline: tl})
	}
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// formatFloat renders a sample value the way Prometheus parsers expect:
// shortest round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
