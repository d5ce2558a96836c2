package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Snapshot is the point-in-time state of one metric, shaped for JSON
// marshalling and plotting front-ends. JSON has no NaN or ±Inf, so a
// non-finite Value (a window gauge before its class's first sojourn, say)
// marshals as null; the Prometheus text format writes it as NaN, +Inf or
// -Inf.
type Snapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Type  string  `json:"type"` // "counter" or "gauge"
	Value float64 `json:"value"`
}

// MarshalJSON encodes s as encoding/json would, except that a NaN or ±Inf
// Value becomes null instead of an error.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type plain Snapshot // drops this method, keeps the field tags
	if !math.IsNaN(s.Value) && !math.IsInf(s.Value, 0) {
		return json.Marshal(plain(s))
	}
	return json.Marshal(struct {
		plain
		Value *float64 `json:"value"`
	}{plain: plain(s)})
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
		if m.kind == kindCounter {
			s.Value = float64(m.c.Value())
		} else {
			s.Value = m.g.Value()
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
// format (version 0.0.4): HELP/TYPE comment lines followed by one sample per
// metric. A nil registry writes nothing.
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
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value)); err != nil {
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
