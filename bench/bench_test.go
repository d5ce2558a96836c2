package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"clusterq/internal/sim"
)

func runMain(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = Main(args, &out, &errb)
	return out.String(), errb.String(), code
}

func loadDefinition(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDefinitionMatchesHarness keeps BENCHMARK.json and the harness naming
// the same workloads and metrics, with the same units.
func TestDefinitionMatchesHarness(t *testing.T) {
	bf := loadDefinition(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		file    []benchMetric
		harness []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.harness) {
			t.Errorf("BENCHMARK.json lists %d metrics, the harness prints %d", len(c.file), len(c.harness))
			continue
		}
		for i, m := range c.file {
			if h := c.harness[i]; m.Name != h.name || m.Unit != h.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the harness prints %s [%s]", i, m.Name, m.Unit, h.name, h.unit)
			}
		}
	}
}

// TestSmoke runs every workload for three ops, untraced and traced: the
// output must parse, carry every metric BENCHMARK.json names with its unit,
// and show no failed op — which at the default seed includes matching the
// digest pins and plan references.
func TestSmoke(t *testing.T) {
	bf := loadDefinition(t)
	for _, w := range workloadNames {
		for _, trace := range []int{0, 1} {
			t.Run(w+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				dir := t.TempDir()
				out, errOut, code := runMain("-workload", w, "-seed", "1", "-ops", "3",
					"-trace", strconv.Itoa(trace), "-trace-dir", dir)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out, errOut)
				}
				r, err := parseRun([]byte(out))
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				if !r.sum.Correct || r.sum.Failed != 0 || r.sum.Attempted < 3 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.sum.Correct, r.sum.Failed, r.sum.Attempted, errOut)
				}
				defs := bf.EndToEnd
				if trace == 1 {
					defs = bf.PerLayer
				}
				if len(r.sum.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(r.sum.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := r.sum.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s [%s] missing or in another unit: %+v", d.Name, d.Unit, m)
					}
				}
				if trace == 0 {
					return
				}
				data, err := os.ReadFile(filepath.Join(dir, w+"-seed1.trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var spans struct {
					TraceEvents []struct {
						Name string  `json:"name"`
						Ph   string  `json:"ph"`
						Dur  float64 `json:"dur"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &spans); err != nil || len(spans.TraceEvents) == 0 {
					t.Errorf("span file holds no trace events (err %v)", err)
				}
				if _, err := os.Stat(filepath.Join(dir, w+"-seed1.cpu.pprof")); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestWritePinsTwice regenerates the pins twice: the bytes must match each
// other and the committed testdata/pins.json.
func TestWritePinsTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the whole plan grid twice")
	}
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, strconv.Itoa(i)+".json")
		if _, errOut, code := runMain("-write-pins", "-pins-out", path); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut)
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("two -write-pins runs wrote different bytes")
	}
	if !bytes.Equal(files[0], pinsJSON) {
		t.Error("testdata/pins.json is stale: regenerate it with -write-pins")
	}
}

// TestAutoscaleOutcome checks the gate on controlled runs: a pool run meets
// its pinned outcome; the same arrivals served at the static peak plan's
// speeds, which a controller that never re-solved would leave in place, do
// not; and a run that misses its reference fails every one of its epochs.
func TestAutoscaleOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two controlled runs")
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	a, err := newAutoscale(pinSeed, p.Autoscale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.controlled(nil, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.outcome(0, res); err != nil {
		t.Error(err)
	}

	rep, err := sim.NewReplication(a.static, sim.Options{Horizon: autoHorizon, Profiles: a.profiles}, opSeed(pinSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	drain(rep)
	held, err := rep.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.outcome(0, held); err == nil {
		t.Errorf("static speeds passed the gate: %.1f W against the controlled run's %.1f W",
			held.TotalPower.Mean, res.TotalPower.Mean)
	}

	a.power = slices.Clone(a.power)
	a.power[0] *= 0.99
	s := newSession(1, 0, nil)
	if _, err := a.controlled(s, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if epochs := int(autoHorizon / autoPeriod); s.attempted != epochs || s.failed != s.attempted {
		t.Errorf("a run above its reference failed %d of %d ops, want all %d", s.failed, s.attempted, epochs)
	}
}

// TestGauge checks that the kernel does the same work on every slice and
// that an op is scaled by the mean of the two slices around it.
func TestGauge(t *testing.T) {
	var g gauge
	for range 2 {
		if err := g.slice(); err != nil {
			t.Fatal(err)
		}
	}
	if !(g.result > 0) || len(g.slices) != 2 {
		t.Fatalf("kernel result %v, %d slices", g.result, len(g.slices))
	}
	g.slices = []float64{2 * refSliceMS, 4 * refSliceMS, refSliceMS}
	if got := g.scale(300, 0); got != 100 {
		t.Errorf("an op between slices 2× and 4× the reference time scaled to %v, want 100", got)
	}
	if got := g.scale(50, 1); got != 20 {
		t.Errorf("an op between slices 4× and 1× the reference time scaled to %v, want 20", got)
	}
}

func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the input order must not matter
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		enough bool
	}{
		{10, 0.5, 5, false},
		{10, 0.9, 9, false},
		{20, 0.5, 10, true},
		{99, 0.9, 90, false}, // 9 samples beyond the rank
		{100, 0.9, 90, true}, // 10 beyond
		{110, 0.9, 99, true},
		{7, 1, 7, false},
		{7, 0, 1, false},
	} {
		got, ok := nearestRank(seq(c.n), c.p)
		if got != c.want || ok != c.enough {
			t.Errorf("nearestRank(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.enough)
		}
	}
	if v, ok := nearestRank(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("empty sample: got %g, %v", v, ok)
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{0.5, 0.25, 4, 8, 16, 2, 1}, [3]float64{0.5, 2, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestPercentileRefused: the reporter prints null, not a number, for a
// percentile with fewer than ten samples beyond it.
func TestPercentileRefused(t *testing.T) {
	m := newMeasured()
	xs := make([]float64, 99)
	m.percentile("p90", xs, 0.9)
	m.percentile("p50", xs, 0.5)
	if _, ok := m.refused["p90"]; !ok {
		t.Error("p90 of 99 samples was reported")
	}
	if _, ok := m.values["p50"]; !ok {
		t.Error("p50 of 99 samples was refused")
	}
	var b strings.Builder
	defs := []metricDef{{"p50", "ms"}, {"p90", "ms"}}
	if err := render(&b, defs, m, newSession(1, 0, nil), nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"p90":{"value":null,"unit":"ms"}`) {
		t.Errorf("summary line %s", last)
	}
}

func TestRefusesCalendarOverride(t *testing.T) {
	t.Setenv("CLUSTERQ_CALENDAR", "heap")
	out, errOut, code := runMain("-workload", "validate", "-ops", "1")
	if code == 0 || out != "" {
		t.Errorf("exit %d with CLUSTERQ_CALENDAR set; stdout %q", code, out)
	}
	if !strings.Contains(errOut, "CLUSTERQ_CALENDAR") {
		t.Errorf("stderr does not name the variable: %q", errOut)
	}
}

func TestRefusesOversubscription(t *testing.T) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	out, errOut, code := runMain("-workload", "validate", "-ops", "1")
	if code == 0 || out != "" {
		t.Errorf("exit %d with GOMAXPROCS > nproc; stdout %q", code, out)
	}
	if !strings.Contains(errOut, "GOMAXPROCS") {
		t.Errorf("stderr does not name GOMAXPROCS: %q", errOut)
	}
}

func TestVerdict(t *testing.T) {
	lower := benchMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := benchMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 100, 80, 120}
	for _, c := range []struct {
		m    benchMetric
		a, b []float64
		want string
	}{
		{lower, base, scale(base, 1.2), "worse"},
		{lower, base, scale(base, 0.8), "better"},
		{lower, base, scale(base, 1.05), "unchanged"},
		{higher, base, scale(base, 1.2), "better"},
		{higher, base, scale(base, 0.8), "worse"},
		{lower, base, noisy, "unresolved"},
		// Every run beats every run, so the noise does not matter.
		{lower, noisy, scale(base, 0.5), "better"},
		// A per-layer metric has no bound, so no verdict.
		{benchMetric{Name: "sim.share_pct", Better: "lower"}, base, scale(base, 2), "-"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		body := `manifest {"workload":"plan","seed":1,"trace":0}` + "\n" +
			`{"correct":true,"attempted":126,"failed":0,"metrics":{"op_p50_ms":{"value":` +
			strconv.FormatFloat(p50, 'g', -1, 64) + `,"unit":"ms"}}}` + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := []string{write("a1", 50), write("a2", 51), write("a3", 49)}
	b := []string{write("b1", 70), write("b2", 71), write("b3", 69)}
	args := append(append(append([]string{"compare", "-bench", filepath.Join("..", "BENCHMARK.json")}, a...), "--"), b...)
	out, errOut, code := runMain(args...)
	if code != 1 || !strings.Contains(out, "worse") {
		t.Errorf("exit %d, want 1 with a worse verdict\n%s%s", code, out, errOut)
	}
	if _, _, code := runMain("compare", a[0]); code != 2 {
		t.Errorf("compare without -- exited %d, want 2", code)
	}
}
