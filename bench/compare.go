package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads: each metric's
// unit, direction and regression bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// runOutput is one saved run: its manifest line and its summary line.
type runOutput struct {
	man manifest
	sum summary
}

func parseRun(data []byte) (runOutput, error) {
	var r runOutput
	var last []byte
	sawManifest := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if m, ok := bytes.CutPrefix(line, []byte("manifest ")); ok {
			if err := json.Unmarshal(m, &r.man); err != nil {
				return r, fmt.Errorf("manifest: %w", err)
			}
			sawManifest = true
		}
		if len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !sawManifest {
		return r, fmt.Errorf("no manifest line")
	}
	if err := json.Unmarshal(last, &r.sum); err != nil {
		return r, fmt.Errorf("summary line: %w", err)
	}
	return r, nil
}

// compareMain implements `clusterqbench compare a... -- b...`: for every
// workload and metric it prints each side's median and quartiles and a
// verdict against the metric's bound. It exits 1 when any verdict is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterqbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 1 || sep == len(rest)-1 {
		_, _ = fmt.Fprintln(stderr, "usage: clusterqbench compare [-bench BENCHMARK.json] a.out... -- b.out...")
		return 2
	}
	bf, err := loadBenchmarkFile(*benchPath)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "clusterqbench compare:", err)
		return 2
	}
	var sides [2][]runOutput
	for i, paths := range [2][]string{rest[:sep], rest[sep+1:]} {
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err == nil {
				var r runOutput
				if r, err = parseRun(data); err == nil {
					sides[i] = append(sides[i], r)
					continue
				}
			}
			_, _ = fmt.Fprintf(stderr, "clusterqbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	var b strings.Builder
	worse := compareRuns(&b, bf, sides[0], sides[1])
	if _, err := io.WriteString(stdout, b.String()); err != nil {
		return 1
	}
	if worse {
		return 1
	}
	return 0
}

// compareRuns writes one row per workload × metric present on both sides
// and reports whether any verdict is "worse".
func compareRuns(b *strings.Builder, bf benchmarkFile, a, c []runOutput) bool {
	type group struct {
		workload string
		trace    int
	}
	var groups []group
	for _, r := range append(append([]runOutput(nil), a...), c...) {
		g := group{r.man.Workload, r.man.Trace}
		if !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}
	fmt.Fprintf(b, "%-10s %-26s %-6s %28s %28s %9s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	anyWorse := false
	for _, g := range groups {
		pick := func(rs []runOutput) []runOutput {
			var out []runOutput
			for _, r := range rs {
				if r.man.Workload == g.workload && r.man.Trace == g.trace {
					out = append(out, r)
				}
			}
			return out
		}
		ga, gc := pick(a), pick(c)
		if len(ga) == 0 || len(gc) == 0 {
			fmt.Fprintf(b, "%-10s (trace %d) runs on one side only\n", g.workload, g.trace)
			continue
		}
		for _, rs := range [][]runOutput{ga, gc} {
			for _, r := range rs {
				if !r.sum.Correct {
					fmt.Fprintf(b, "%-10s a run failed %d of %d ops\n", g.workload, r.sum.Failed, r.sum.Attempted)
				}
			}
		}
		defs := bf.EndToEnd
		if g.trace == 1 {
			defs = bf.PerLayer
		}
		for _, m := range defs {
			va, vc := metricValues(ga, m.Name), metricValues(gc, m.Name)
			if len(va) == 0 || len(vc) == 0 {
				continue
			}
			v := verdict(m, va, vc)
			anyWorse = anyWorse || v == "worse"
			_, ma, _ := quartiles(va)
			_, mc, _ := quartiles(vc)
			change, bound := "-", "-"
			if math.Abs(ma) > 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(mc-ma)/math.Abs(ma))
			}
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
			}
			fmt.Fprintf(b, "%-10s %-26s %-6s %28s %28s %9s %7s  %s\n",
				g.workload, m.Name, m.Unit, spreadString(va), spreadString(vc), change, bound, v)
		}
	}
	return anyWorse
}

func metricValues(rs []runOutput, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.sum.Metrics[name]; ok && m.Value != nil {
			out = append(out, *m.Value)
		}
	}
	return out
}

func spreadString(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// verdict judges side c against side a by the metric's bound. Where either
// side's own spread — the distance between its quartiles, as a share of its
// median — exceeds the bound, the difference cannot be told from noise and
// the verdict is "unresolved", unless every run of c beats every run of a.
// Metrics without a bound (the per-layer ones) get no verdict.
func verdict(m benchMetric, a, c []float64) string {
	if !(m.Bound > 0) || (m.Better != "lower" && m.Better != "higher") {
		return "-"
	}
	sign := 1.0 // positive differences are worse
	if m.Better == "higher" {
		sign = -1
	}
	spread := func(xs []float64) float64 {
		q1, q2, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(q2)
	}
	if spread(a) > m.Bound || spread(c) > m.Bound {
		worstC, bestA := math.Inf(-1), math.Inf(1)
		for _, x := range c {
			worstC = max(worstC, sign*x)
		}
		for _, x := range a {
			bestA = min(bestA, sign*x)
		}
		if worstC < bestA {
			return "better"
		}
		return "unresolved"
	}
	_, ma, _ := quartiles(a)
	_, mc, _ := quartiles(c)
	switch d := sign * (mc - ma) / math.Abs(ma); {
	case d > m.Bound:
		return "worse"
	case d < -m.Bound:
		return "better"
	}
	return "unchanged"
}
