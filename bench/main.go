// Package bench is clusterq's benchmark harness. It runs one of four
// closed-loop workloads (validate, plan, autoscale, overload), timing only
// the public entry points of each layer — cluster.Evaluate, the core
// solvers, control.Controller.DecidePlan and the simulator — checks every
// operation's output, and prints each metric by name and unit followed by a
// one-line JSON summary. An untraced run gives the end-to-end metrics; a
// traced run (-trace 1) records spans around the same calls, writes them as
// Chrome trace-event JSON with a layer-labelled CPU profile, and gives the
// per-layer metrics. See README.md for the workloads and the metric map.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

// setups is how many times a run builds its workload; setup_s is the
// median, so one slow first build (page faults, lazy runtime set-up) does
// not decide it.
const setups = 11

// procs is the GOMAXPROCS a run measures with. One: on a shared host with
// few CPUs, how much of the second CPU a process gets swings from run to
// run, and with it every timing — by up to 40% measured on a 2-vCPU VM,
// against about 5% on one. Replications therefore run one after another.
const procs = 1

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	ops      int
	traceDir string
}

// Main runs the benchmark command line and returns the process exit code:
// 0 when the run completed and every op passed its check, 1 when a check
// failed or the run could not complete, 2 on a usage or environment error.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("clusterqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", pinSeed, "workload seed; 1 is pinned, 2 and 3 are held out for claims")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1: record spans and a CPU profile and print the per-layer metrics")
	fs.IntVar(&cfg.ops, "ops", 0, "run exactly this many ops instead of timing -seconds (smoke tests)")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its span file and CPU profile")
	writePinsTo := fs.Bool("write-pins", false, "regenerate the digest pins and plan references, then exit")
	pinsOut := fs.String("pins-out", filepath.Join("bench", "testdata", "pins.json"), "file -write-pins writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		_, _ = fmt.Fprintf(stderr, "clusterqbench: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if err := checkEnvironment(); err != nil {
		return usage("%v", err)
	}
	if *writePinsTo {
		if err := writePins(*pinsOut); err != nil {
			_, _ = fmt.Fprintln(stderr, "clusterqbench: writing pins:", err)
			return 1
		}
		return 0
	}
	switch {
	case cfg.trace != 0 && cfg.trace != 1:
		return usage("-trace must be 0 or 1, got %d", cfg.trace)
	case !(cfg.seconds > 0):
		return usage("-seconds must be positive, got %g", cfg.seconds)
	case cfg.ops < 0:
		return usage("-ops must not be negative, got %d", cfg.ops)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	out, correct, failures, err := run(cfg)
	for _, f := range failures {
		_, _ = fmt.Fprintln(stderr, "clusterqbench: failed:", f)
	}
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "clusterqbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if _, err := io.WriteString(stdout, out); err != nil {
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// checkEnvironment refuses settings that silently change what is measured.
func checkEnvironment() error {
	if v, ok := os.LookupEnv("CLUSTERQ_CALENDAR"); ok {
		return fmt.Errorf("CLUSTERQ_CALENDAR=%q is set; it swaps the event calendar under test, unset it", v)
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; unset it (the benchmark measures on one)", p, n)
	}
	return nil
}

// run sets the workload up, runs its timed phase and renders the report.
func run(cfg config) (string, bool, []string, error) {
	var b strings.Builder
	man, err := json.Marshal(newManifest(cfg))
	if err != nil {
		return "", false, nil, err
	}
	fmt.Fprintf(&b, "manifest %s\n", man)

	// Each set-up is gauged like an op: between two kernel slices.
	var w runner
	setupS := make([]float64, setups)
	sg := &gauge{}
	if err := sg.slice(); err != nil {
		return "", false, nil, err
	}
	for k := range setupS {
		c0 := cpuTime()
		if w, err = setup(cfg.workload, cfg.seed); err != nil {
			return "", false, nil, err
		}
		if err := w.warmup(); err != nil {
			return "", false, nil, fmt.Errorf("warm-up op: %w", err)
		}
		d := cpuTime() - c0
		if err := sg.slice(); err != nil {
			return "", false, nil, err
		}
		setupS[k] = sg.scale(d.Seconds(), k)
	}

	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer()
	}
	s := newSession(cfg.seconds, cfg.ops, tr)
	var runErr error
	timed := func() {
		s.start = time.Now()
		runErr = w.run(s)
	}
	base := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if tr != nil {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return "", false, nil, err
		}
		err := writeFile(base+".cpu.pprof", func(f io.Writer) error {
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			timed()
			pprof.StopCPUProfile()
			return nil
		})
		if err == nil {
			err = writeFile(base+".trace.json", tr.writeChrome)
		}
		if err != nil {
			return "", false, s.failures, err
		}
	} else {
		timed()
	}
	if runErr != nil {
		return "", false, s.failures, runErr
	}

	if s.f.worstModelPct > 0 {
		fmt.Fprintf(&b, "%-26s %14.4g %-6s worst class mean delay vs the model (limit %g%%)\n",
			"validate.model_error_pct", s.f.worstModelPct, "%", 100*validateTol)
	}
	if tr == nil {
		scaled, err := s.scaled()
		if err != nil {
			return "", false, s.failures, err
		}
		fmt.Fprintf(&b, "%-26s %14.4g %-6s median gauge slice over its idle time, set-up / timed phase %.3g\n",
			"host_slowdown", s.g.slowdown(), "x", sg.slowdown())
		fmt.Fprintf(&b, "%-26s %14.6g %-6s unscaled CPU time; printed only\n", "op_cpu_p50_ms", median(s.plain), "ms")
		notes := map[string]string{
			"setup_s":    fmt.Sprintf("median of %d set-ups, each with one warm-up op", setups),
			"op_p50_ms":  fmt.Sprintf("n=%d", len(scaled)),
			"op_p90_ms":  fmt.Sprintf("n=%d", len(scaled)),
			"op_mean_ms": fmt.Sprintf("n=%d", len(scaled)),
		}
		err = render(&b, endToEnd, endToEndMetrics(setupS, scaled), s, notes)
		return b.String(), s.failed == 0, s.failures, err
	}
	m, err := perLayerMetrics(w, s)
	if err != nil {
		return "", false, s.failures, err
	}
	fmt.Fprintf(&b, "spans and CPU profile: %s.trace.json, %s.cpu.pprof\n", base, base)
	tr.spanTable(&b)
	err = render(&b, perLayer, m, s, map[string]string{
		"bench.trace_overhead_pct": fmt.Sprintf("median traced/untraced latency over %d op pairs", len(s.traced)),
	})
	return b.String(), s.failed == 0, s.failures, err
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// manifest records what ran and where, so a number can be traced back to
// its build and machine.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Ops        int     `json:"ops,omitempty"`
	Trace      int     `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Revision   string  `json:"revision"`
	GOGC       string  `json:"gogc"`
	Calendar   string  `json:"calendar"`
}

func newManifest(cfg config) manifest {
	m := manifest{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Ops: cfg.ops, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Go: runtime.Version(), Revision: "unknown",
		GOGC: os.Getenv("GOGC"), Calendar: "heap (default)",
	}
	if m.GOGC == "" {
		m.GOGC = "default"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			m.Revision = rev
			if dirty {
				m.Revision += "+dirty"
			}
		}
	}
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
