package bench

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"clusterq/internal/cluster"
	"clusterq/internal/control"
	"clusterq/internal/core"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/opt"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// A runner is one workload: a set of inputs the benchmark runs, built from
// the seed. Every workload is a closed loop: one caller issues the next op
// only after the previous one returns.
type runner interface {
	// warmup runs one untimed op, so lazy set-up is paid before timing.
	warmup() error
	// run issues ops until the session says stop. Op failures are recorded
	// in the session; an error means the harness itself could not go on.
	run(s *session) error
	// model is the cluster whose analytic evaluation the traced run times.
	model() *cluster.Cluster
}

var workloadNames = []string{"validate", "plan", "autoscale", "overload"}

func setup(name string, seed uint64) (runner, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	if seed != pinSeed {
		p.Validate, p.Overload = nil, nil
	}
	switch name {
	case "validate":
		return newValidate(seed, p.Validate)
	case "plan":
		return newPlan(seed, p.Plan)
	case "autoscale":
		if len(p.Autoscale) != autoRuns {
			return nil, fmt.Errorf("testdata/pins.json holds %d autoscale run powers for %d runs; regenerate it", len(p.Autoscale), autoRuns)
		}
		return newAutoscale(seed, p.Autoscale)
	case "overload":
		return newOverload(seed, p.Overload)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// warmupOp is the op index of the warm-up op: far from any timed op, so its
// seed is one no timed op uses.
const warmupOp = 1 << 18

// opSeed spreads a workload seed into per-op simulation seeds.
func opSeed(seed uint64, i int) uint64 { return seed<<20 + uint64(i) }

// The reduced solver budgets the online controller re-solves with each
// epoch, used by the autoscale workload (its controller and its static peak
// plan). Plan solves use the solvers' defaults, as offline planning does.
var solverAugLag = opt.AugLagOptions{OuterIters: 10, Inner: opt.NelderMeadOptions{MaxIters: 250}}

const solverStarts = 2

// ---- validate: the paper's model-validation path (C5) ----------------------

const (
	validateHorizon = 25000
	validateReps    = 2
	// validateTol bounds each class's |simulated − model| / model mean
	// delay: about twice the worst error seen over ten seeds.
	validateTol = 0.10
)

type validate struct {
	c      *cluster.Cluster
	ref    []float64 // the model's mean delay per class
	seed   uint64
	pinned []string
}

func newValidate(seed uint64, pinned []string) (*validate, error) {
	c := workload.Enterprise3Tier(1)
	m, err := cluster.Evaluate(c)
	if err != nil {
		return nil, err
	}
	return &validate{c: c, ref: m.Delay, seed: seed, pinned: pinned}, nil
}

func (v *validate) model() *cluster.Cluster { return v.c }

// options are op i's simulation settings; replication r runs seed+r, so op
// seeds step by the replication count.
func (v *validate) options(i int) sim.Options {
	return sim.Options{
		Horizon: validateHorizon, Replications: validateReps,
		Seed: opSeed(v.seed, validateReps*i), Quantiles: []float64{0.95},
	}
}

func (v *validate) simulate(tr *tracer, i int) (*sim.Result, time.Duration, error) {
	var (
		res *sim.Result
		err error
	)
	d := tr.call("sim.Run", layerSim, func() { res, err = sim.Run(v.c, v.options(i)) })
	return res, d, err
}

// check compares op i's per-class mean delays with the model and returns
// the worst relative error.
func (v *validate) check(i int, res *sim.Result) (float64, error) {
	worst := 0.0
	for k, want := range v.ref {
		got := res.Delay[k].Mean
		e := math.Abs(got-want) / want
		if !(e <= validateTol) {
			return e, fmt.Errorf("validate op %d: class %d mean delay %.4g s is %.1f%% off the model's %.4g s",
				i, k, got, 100*e, want)
		}
		worst = max(worst, e)
	}
	return worst, checkPin(v.pinned, i, res)
}

func (v *validate) warmup() error {
	res, _, err := v.simulate(nil, warmupOp)
	if err != nil {
		return err
	}
	_, err = v.check(warmupOp, res)
	return err
}

func (v *validate) run(s *session) error {
	for i := 0; s.more(); i++ {
		s.op(i, func(tr *tracer) (time.Duration, error) {
			res, d, err := v.simulate(tr, i)
			if err != nil {
				return d, err
			}
			worst, err := v.check(i, res)
			s.f.worstModelPct = max(s.f.worstModelPct, 100*worst)
			if tr != nil {
				s.f.jobs += completed(res)
			}
			return d, err
		})
		if s.tr != nil {
			if err := v.replay(s, i); err != nil {
				return err
			}
		}
	}
	if s.tr == nil {
		return nil
	}
	o := v.options(0)
	o.Probe = &sim.Probe{Period: 1}
	rep, err := sim.NewReplication(v.c, o, o.Seed)
	if err != nil {
		return err
	}
	drain(rep)
	res, err := rep.Result()
	if err != nil {
		return err
	}
	s.probed(res)
	return nil
}

// replay re-runs op i's replications through the stepped engine. sim.Run
// hides its event loop, so this is where validate's event counts and
// per-event costs come from; the seeds are the op's, so the replay
// simulates exactly the jobs the op did.
func (v *validate) replay(s *session, i int) error {
	o := v.options(i)
	for r := 0; r < o.Replications; r++ {
		before := s.tr.readHeap()
		t0 := time.Now()
		rep, err := sim.NewReplication(v.c, o, o.Seed+uint64(r))
		if err != nil {
			return err
		}
		n := drain(rep)
		if _, err := rep.Result(); err != nil {
			return err
		}
		s.f.serial += time.Since(t0)
		s.f.serialBytes += float64(s.tr.readHeap()[0] - before[0])
		s.f.events += n
		s.f.reps++
	}
	return nil
}

// ---- plan: offline capacity planning (C2–C4) -------------------------------

const (
	// planTol is the relative constraint violation a solution may show when
	// re-evaluated: the solvers' own acceptance guard.
	planTol = 1e-3
	// planSlack is how far above its pinned reference an objective may land.
	planSlack  = 0.005
	planLevels = 7
)

var (
	planLoads = []float64{0.8, 1.0, 1.2}
	// Per-level constraint settings, loosest last; each kind spans its
	// feasible range on Enterprise3TierHeavyDB at every load.
	budgetFracs = [planLevels]float64{0.05, 0.15, 0.3, 0.45, 0.6, 0.8, 1.0} // C2: power budget
	delayFracs  = [planLevels]float64{0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9}  // C3a: aggregate delay bound
	bronzeMults = [planLevels]float64{1.15, 1.5, 2, 2.5, 3.25, 4, 7}        // C3b: bronze bound / best
	marginFracs = [planLevels]float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}   // C4: SLA safety margin
)

// problem is one planning solve and the check its solution must pass when
// re-evaluated.
type problem struct {
	key, kind string
	auglag    bool // solved by the augmented Lagrangian over Evaluate
	solve     func() (*core.Solution, error)
	check     func(sol *core.Solution, m *cluster.Metrics) error
}

type plan struct {
	problems []problem
	refs     map[string]float64
	seed     uint64
}

func newPlan(seed uint64, refs map[string]float64) (*plan, error) {
	ps, err := planProblems()
	if err != nil {
		return nil, err
	}
	return &plan{problems: ps, refs: refs, seed: seed}, nil
}

func (p *plan) model() *cluster.Cluster { return workload.Enterprise3TierHeavyDB(1) }

// uniformKind is the uniform-speed baseline experiment E5 sets beside each
// C2 solution: one bisection over a common speed multiplier, not a solve.
const uniformKind = "uniform"

// planProblems is the fixed grid: 3 loads × 7 levels × 7 kinds, 147
// distinct problems, all solved with the solvers' default options. The kinds
// are the six solvers and the uniform baseline. Without the baseline, the
// three fast kinds (both duals and C2, at most 50 ms) would be exactly half
// the grid, so the median would fall on the gap between C2 and C3a (about
// 90 ms up) and jump across it whenever one fast solve ran slow; with it the
// median sits inside C2's dense middle.
func planProblems() ([]problem, error) {
	var out []problem
	for _, load := range planLoads {
		ps, err := problemsAt(load)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

func evaluateAt(c *cluster.Cluster, speeds []float64) (*cluster.Metrics, error) {
	a := c.Clone()
	if err := a.SetSpeeds(speeds); err != nil {
		return nil, err
	}
	return cluster.Evaluate(a)
}

// problemsAt builds the 49 problems at one load. Constraint levels are set
// from the cluster's own range: power from the slowest stable configuration
// to full speed, aggregate delay from full speed to a slow stable point, and
// each class's mean delay bound as a multiple of its best achievable one.
func problemsAt(load float64) ([]problem, error) {
	c := workload.Enterprise3TierHeavyDB(load)
	lo, hi := c.SpeedBounds()
	slow := make([]float64, len(lo))
	for j := range lo {
		slow[j] = lo[j] + 0.2*(hi[j]-lo[j])
	}
	mLo, err := evaluateAt(c, lo)
	if err != nil {
		return nil, err
	}
	mHi, err := evaluateAt(c, hi)
	if err != nil {
		return nil, err
	}
	mSlow, err := evaluateAt(c, slow)
	if err != nil {
		return nil, err
	}
	pLo, pHi := 1.02*mLo.TotalPower, mHi.TotalPower
	dLo, dHi := mHi.WeightedDelay, mSlow.WeightedDelay

	var ps []problem
	for l := 0; l < planLevels; l++ {
		key := func(kind string) string { return fmt.Sprintf("%s/load%.1f/level%d", kind, load, l) }
		budget := pLo + budgetFracs[l]*(pHi-pLo)
		delayOpts := core.DelayOptions{EnergyBudget: budget}
		withinBudget := func(_ *core.Solution, m *cluster.Metrics) error {
			return atMost("power", m.TotalPower, budget)
		}
		bound := dLo + delayFracs[l]*(dHi-dLo)
		energyOpts := core.EnergyOptions{MaxWeightedDelay: bound}
		withinDelay := func(_ *core.Solution, m *cluster.Metrics) error {
			return atMost("weighted delay", m.WeightedDelay, bound)
		}
		bounds := []float64{6 * mHi.Delay[0], 6 * mHi.Delay[1], bronzeMults[l] * mHi.Delay[2]}
		margin := marginFracs[l]
		ps = append(ps,
			problem{key("c2"), "c2", true,
				func() (*core.Solution, error) { return core.MinimizeDelay(c, delayOpts) }, withinBudget},
			problem{key(uniformKind), uniformKind, false,
				func() (*core.Solution, error) { return core.UniformDelayBaseline(c, budget) }, withinBudget},
			problem{key("c2_dual"), "c2_dual", false,
				func() (*core.Solution, error) { return core.MinimizeDelayDual(c, delayOpts) }, withinBudget},
			problem{key("c3a"), "c3a", true,
				func() (*core.Solution, error) { return core.MinimizeEnergy(c, energyOpts) }, withinDelay},
			problem{key("c3a_dual"), "c3a_dual", false,
				func() (*core.Solution, error) { return core.MinimizeEnergyDual(c, energyOpts) }, withinDelay},
			problem{key("c3b"), "c3b", true,
				func() (*core.Solution, error) {
					return core.MinimizeEnergyPerClass(c, core.EnergyOptions{MaxClassDelay: bounds})
				},
				func(_ *core.Solution, m *cluster.Metrics) error {
					for k, b := range bounds {
						if err := atMost(fmt.Sprintf("class %d delay", k), m.Delay[k], b); err != nil {
							return err
						}
					}
					return nil
				}},
			problem{key("c4"), "c4", false,
				func() (*core.Solution, error) {
					return core.MinimizeCost(c, core.CostOptions{SafetyMargin: margin})
				},
				func(sol *core.Solution, m *cluster.Metrics) error {
					reps, err := cluster.CheckSLAs(sol.Cluster, m)
					if err != nil {
						return err
					}
					for _, r := range reps {
						if !r.Satisfied() {
							return fmt.Errorf("class %s misses its SLA: %+v", r.Class, r)
						}
					}
					return nil
				}},
		)
	}
	return ps, nil
}

func atMost(what string, got, limit float64) error {
	if !((got-limit)/limit <= planTol) {
		return fmt.Errorf("%s %.6g exceeds its limit %.6g", what, got, limit)
	}
	return nil
}

func (p *plan) warmup() error {
	ps, err := problemsAt(0.9) // off the grid, so no timed problem is pre-solved
	if err != nil {
		return err
	}
	_, err = ps[0].solve() // C2 at the tightest level
	return err
}

// run solves whole passes over the grid, each in a seed-shuffled order, so
// every untraced run's latency sample is drawn from the same 147 problems.
func (p *plan) run(s *session) error {
	n := 0
	for pass := 0; s.more(); pass++ {
		order := rand.New(rand.NewPCG(p.seed, uint64(pass))).Perm(len(p.problems))
		for _, k := range order {
			if s.cut() {
				break
			}
			pr := &p.problems[k]
			s.op(n, func(tr *tracer) (time.Duration, error) { return p.solve(s, tr, pr) })
			n++
		}
	}
	return nil
}

// solve runs one problem, re-evaluates its solution, and checks the
// constraint and the objective against the pinned reference.
func (p *plan) solve(s *session, tr *tracer, pr *problem) (time.Duration, error) {
	var (
		sol *core.Solution
		m   *cluster.Metrics
		err error
	)
	d := tr.call("core."+pr.kind, layerCore, func() { sol, err = pr.solve() })
	if err != nil {
		return d, fmt.Errorf("plan %s: %w", pr.key, err)
	}
	tr.call("cluster.Evaluate", layerCluster, func() { m, err = cluster.Evaluate(sol.Cluster) })
	if err != nil {
		return d, fmt.Errorf("plan %s: re-evaluating the solution: %w", pr.key, err)
	}
	if err := pr.check(sol, m); err != nil {
		return d, fmt.Errorf("plan %s: %w", pr.key, err)
	}
	ref, ok := p.refs[pr.key]
	if !ok {
		return d, fmt.Errorf("plan %s: no pinned reference objective", pr.key)
	}
	if !(sol.Objective <= (1+planSlack)*ref) {
		return d, fmt.Errorf("plan %s: objective %.6g is more than %.1f%% above the reference %.6g",
			pr.key, sol.Objective, 100*planSlack, ref)
	}
	if tr != nil && pr.kind != uniformKind {
		s.f.solves++
		if sol.Result.Converged {
			s.f.converged++
		}
		s.f.evals += sol.Result.Evals
		if pr.auglag {
			s.f.alEvals += sol.Result.Evals
			s.f.alSolve += d
		}
		s.f.gapPct = append(s.f.gapPct, 100*(sol.Objective-ref)/ref)
	}
	return d, nil
}

// ---- autoscale: the closed control loop under a flash crowd ----------------

const (
	autoHorizon = 1000.0 // 25 control epochs per controlled run
	autoPeriod  = 40.0
	autoFlash   = 1.9 // arrival multiplier for 15% of the horizon
	// autoRuns is the pool of controlled runs a pass goes through: 125
	// epochs, enough for a p90 with ten beyond it. Their arrival seeds are
	// fixed, so each run's outcome can be pinned.
	autoRuns = 5
	// autoPowerSlack is how far above its pinned mean power a controlled run
	// may land.
	autoPowerSlack = 0.005
)

type autoscale struct {
	base, static *cluster.Cluster // static: the speeds of the C3b plan for the peak load
	profiles     []sim.Profile
	lo, hi       []float64 // speed bounds every decision must respect
	bounds       []float64 // SLA mean-delay bounds
	power        []float64 // pinned mean power of each pool run; nil while writing pins
	seed         uint64
}

func newAutoscale(seed uint64, power []float64) (*autoscale, error) {
	base := workload.Enterprise3Tier(1)
	profiles, err := workload.FlashCrowdProfiles(base, autoFlash, 0.45*autoHorizon, 0.15*autoHorizon)
	if err != nil {
		return nil, err
	}
	bounds := make([]float64, len(base.Classes))
	for k, cl := range base.Classes {
		bounds[k] = cl.SLA.MaxMeanDelay
	}
	peak := workload.ScaleArrivals(base, workload.PeakFactor(base, profiles))
	sol, err := core.MinimizeEnergyPerClass(peak, core.EnergyOptions{
		MaxClassDelay: bounds, Starts: solverStarts, AugLag: solverAugLag})
	if err != nil {
		return nil, fmt.Errorf("autoscale: static peak plan: %w", err)
	}
	static := base.Clone()
	if err := static.SetSpeeds(sol.Cluster.Speeds()); err != nil {
		return nil, err
	}
	lo, hi := base.SpeedBounds()
	return &autoscale{
		base: base, static: static, profiles: profiles, lo: lo, hi: hi,
		bounds: bounds, power: power, seed: seed,
	}, nil
}

func (a *autoscale) model() *cluster.Cluster { return a.static }

// controller is the model arm of experiment E23.
func (a *autoscale) controller() (*control.Controller, error) {
	return control.New(a.base, control.Config{
		Objective: control.EnergySLA, Smoothing: 0.7, Margin: 0.35,
		Starts: solverStarts, AugLag: solverAugLag,
	})
}

// check accepts a hold (no speeds) or finite speeds within the tier bounds;
// the energy objective never resizes pools.
func (a *autoscale) check(d sim.PlanDecision) error {
	if len(d.Servers) > 0 {
		return fmt.Errorf("autoscale: the energy objective resized pools: %v", d.Servers)
	}
	if d.Speeds == nil {
		return nil
	}
	if len(d.Speeds) != len(a.lo) {
		return fmt.Errorf("autoscale: %d speeds for %d tiers", len(d.Speeds), len(a.lo))
	}
	for j, v := range d.Speeds {
		if math.IsNaN(v) || v < a.lo[j] || v > a.hi[j] {
			return fmt.Errorf("autoscale: tier %d speed %g outside [%g, %g]", j, v, a.lo[j], a.hi[j])
		}
	}
	return nil
}

// outcome checks what pool run r achieved: no class may miss its SLA, and
// its mean power may exceed the pinned reference by at most autoPowerSlack.
// A controller that re-solves less often, or worse, holds speeds nearer the
// static peak plan and fails here, however fast its epochs are.
func (a *autoscale) outcome(r int, res *sim.Result) error {
	for k, b := range a.bounds {
		if got := res.Delay[k].Mean; !(got <= b) {
			return fmt.Errorf("autoscale run %d: class %d mean delay %.4g s misses its SLA bound %.4g s", r, k, got, b)
		}
	}
	if a.power == nil {
		return nil
	}
	if got, ref := res.TotalPower.Mean, a.power[r]; !(got <= (1+autoPowerSlack)*ref) {
		return fmt.Errorf("autoscale run %d: mean power %.6g W is more than %.1f%% above the reference %.6g W",
			r, got, 100*autoPowerSlack, ref)
	}
	return nil
}

func (a *autoscale) warmup() error {
	ctl, err := a.controller()
	if err != nil {
		return err
	}
	obs := sim.PlanObservation{
		Time: autoPeriod, Stations: make([]sim.Observation, len(a.base.Tiers)), Rates: a.base.Lambdas(),
	}
	return a.check(ctl.DecidePlan(obs))
}

// run goes through whole passes over the pool of controlled runs, each pass
// in a seed-shuffled order; every control epoch of a run is an op.
func (a *autoscale) run(s *session) error {
	for pass := 0; s.more(); pass++ {
		for _, r := range rand.New(rand.NewPCG(a.seed, uint64(pass))).Perm(autoRuns) {
			if s.cut() {
				break
			}
			limit := 0
			if s.maxOps > 0 {
				limit = s.maxOps - len(s.plain)
			}
			if _, err := a.controlled(s, r, limit, false); err != nil {
				return err
			}
		}
	}
	if s.tr == nil {
		return nil
	}
	res, err := a.controlled(nil, 0, s.maxOps, true)
	if err != nil {
		return err
	}
	s.probed(res)
	return nil
}

// controlled simulates pool run r under the autoscaler. With a session, each
// epoch's DecidePlan is recorded as an op, and a run that reaches its
// horizon has its outcome checked: when that fails, so do all its ops.
// limit > 0 stops the run after that many epochs; probe attaches the probe.
//
// A traced session cannot replay an epoch — the controller carries state
// from one to the next, and each run takes seconds, over which this host's
// speed drifts. So it runs a twin controller in lockstep instead: fed the
// same observations, the twin reaches the same state and decisions, and its
// untraced call, made right after the traced one, is the untraced copy of
// the op. The simulator is stepped one epoch at a time so the twin's calls
// fall outside every span.
func (a *autoscale) controlled(s *session, r, limit int, probe bool) (*sim.Result, error) {
	ctl, err := a.controller()
	if err != nil {
		return nil, err
	}
	win, err := window.NewSet(window.Config{Width: autoPeriod, Buckets: 8}, len(a.base.Classes), len(a.base.Tiers))
	if err != nil {
		return nil, err
	}
	tc := &timedController{a: a, ctl: ctl, s: s}
	var tr *tracer
	attempted := 0
	if s != nil {
		tc.first, tr, attempted = len(s.plain), s.tr, s.attempted
	}
	if tr != nil {
		if tc.twin, err = a.controller(); err != nil {
			return nil, err
		}
	}
	o := sim.Options{
		Horizon: autoHorizon, Profiles: a.profiles,
		PlanController: tc, ControlPeriod: autoPeriod, Windows: win,
	}
	if probe {
		o.Probe = &sim.Probe{Period: 1}
	}
	var rep *sim.Replication
	tr.call("sim.NewReplication", layerSim, func() { rep, err = sim.NewReplication(a.static, o, opSeed(pinSeed, r)) })
	if err != nil {
		return nil, err
	}
	full := func() bool { return limit > 0 && tc.epochs >= limit }
	var n int64
	for rep.HasPendingEvents() && !full() {
		tr.call("sim.loop", layerSim, func() {
			for !tc.pending && !full() && rep.ProcessNextEvent() {
				n++
			}
		})
		tc.decideTwin()
	}
	complete := !rep.HasPendingEvents()
	var res *sim.Result
	tr.call("sim.Result", layerSim, func() { res, err = rep.Result() })
	if err != nil || s == nil {
		return res, err
	}
	if complete {
		if err := a.outcome(r, res); err != nil {
			s.fail(s.attempted-attempted, err)
		}
	}
	if tr == nil {
		return res, nil
	}
	s.f.events += n
	s.f.reps++
	s.f.jobs += completed(res)
	s.f.runs++
	s.f.powerW += res.TotalPower.Mean
	for k, b := range a.bounds {
		if res.Delay[k].Mean > b {
			s.f.slaMisses++
		}
	}
	return res, nil
}

// timedController wraps the autoscaler so each DecidePlan call is one timed,
// checked op. Solve, hold and fallback epochs are told apart by the
// controller's counters around the call.
type timedController struct {
	a        *autoscale
	ctl      *control.Controller
	s        *session // nil: an untimed run
	first    int      // op index of the run's first epoch
	epochs   int
	twin     *control.Controller // traced sessions: the untraced lockstep copy
	pending  bool                // the twin has yet to decide obs
	obs      sim.PlanObservation
	decision sim.PlanDecision // ctl's decision on obs, which the twin must match
}

func (t *timedController) Name() string { return t.ctl.Name() }

func (t *timedController) DecidePlan(obs sim.PlanObservation) sim.PlanDecision {
	i := t.first + t.epochs
	t.epochs++
	if t.s == nil {
		return t.ctl.DecidePlan(obs)
	}
	var dec sim.PlanDecision
	t.s.exec(t.s.tr, i, t.decide(t.ctl, obs, &dec))
	if t.twin != nil {
		t.pending, t.decision = true, dec
		t.obs = sim.PlanObservation{
			Time:     obs.Time,
			Stations: append([]sim.Observation(nil), obs.Stations...),
			Rates:    append([]float64(nil), obs.Rates...),
		}
	}
	return dec
}

// decideTwin makes the twin's untraced call on the last observation.
func (t *timedController) decideTwin() {
	if !t.pending {
		return
	}
	t.pending = false
	var dec sim.PlanDecision
	decide := t.decide(t.twin, t.obs, &dec)
	t.s.exec(nil, t.first+t.epochs-1, func(tr *tracer) (time.Duration, error) {
		d, err := decide(tr)
		if err == nil && !(slices.Equal(dec.Speeds, t.decision.Speeds) && slices.Equal(dec.Servers, t.decision.Servers)) {
			err = fmt.Errorf("autoscale: twin controllers decided %v and %v on the same observations", t.decision, dec)
		}
		return d, err
	})
}

// decide returns an op calling ctl on obs into dec and checking the result.
func (t *timedController) decide(ctl *control.Controller, obs sim.PlanObservation, dec *sim.PlanDecision) func(*tracer) (time.Duration, error) {
	return func(tr *tracer) (time.Duration, error) {
		before := ctl.Stats()
		d := tr.call("control.DecidePlan", layerControl, func() { *dec = ctl.DecidePlan(obs) })
		after := ctl.Stats()
		solved, fellBack := after.Solves-before.Solves, after.Fallbacks-before.Fallbacks
		switch {
		case fellBack > 0:
			tr.rename("control.decide.fallback")
		case solved > 0:
			tr.rename("control.decide.solve")
		default:
			tr.rename("control.decide.hold")
		}
		if tr != nil {
			t.s.f.epochs++
			t.s.f.ctlSolves += solved
			t.s.f.fallbacks += fellBack
		}
		return d, t.a.check(*dec)
	}
}

// ---- overload: a large live set under failures, retries and observers ------

const (
	overloadHorizon = 200.0
	overloadWarmup  = 40.0
	overloadServers = 64
	// obsPairs is how many detached/attached op pairs measure what the
	// observers cost.
	obsPairs = 10
)

type overload struct {
	c         *cluster.Cluster
	failures  []*sim.FailureConfig
	deadlines []*sim.DeadlineConfig
	seed      uint64
	pinned    []string
	first     string // digest of op 0, which every re-run must reproduce
}

func newOverload(seed uint64, pinned []string) (*overload, error) {
	c := workload.Scalable(3, 8, 1)
	for _, t := range c.Tiers {
		t.Servers = overloadServers
		t.Discipline = queueing.PreemptiveResume
	}
	c = workload.CapacityFraction(c, 0.9)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	o := &overload{c: c, seed: seed, pinned: pinned}
	for range c.Tiers {
		o.failures = append(o.failures, &sim.FailureConfig{MTBF: 500, MTTR: 20})
	}
	for range c.Classes {
		o.deadlines = append(o.deadlines, &sim.DeadlineConfig{Deadline: 4, MaxRetries: 2, RetryBackoff: 1})
	}
	return o, nil
}

// model is the overload cluster served non-preemptively: the analytic model
// has no closed form for preemptive-resume tiers with several servers.
func (o *overload) model() *cluster.Cluster {
	c := o.c.Clone()
	for _, t := range c.Tiers {
		t.Discipline = queueing.NonPreemptive
	}
	return c
}

// options builds fresh observers for every replication: the recorder and
// window sensors keep state.
func (o *overload) options(observers bool) (sim.Options, error) {
	opts := sim.Options{
		Horizon: overloadHorizon, Warmup: overloadWarmup,
		Failures: o.failures, Deadlines: o.deadlines,
	}
	if !observers {
		return opts, nil
	}
	win, err := window.NewSet(window.Config{Width: 10}, len(o.c.Classes), len(o.c.Tiers))
	if err != nil {
		return opts, err
	}
	opts.Probe = &sim.Probe{Period: 1}
	opts.Windows = win
	opts.Recorder = trace.NewRecorder(0)
	return opts, nil
}

// replicate runs op i's replication — NewReplication, the event loop,
// Result — and returns it with its event count and latency.
func (o *overload) replicate(tr *tracer, i int, observers bool) (*sim.Result, int64, time.Duration, error) {
	opts, err := o.options(observers)
	if err != nil {
		return nil, 0, 0, err
	}
	var rep *sim.Replication
	d := tr.call("sim.NewReplication", layerSim, func() { rep, err = sim.NewReplication(o.c, opts, opSeed(o.seed, i)) })
	if err != nil {
		return nil, 0, d, err
	}
	var n int64
	d += tr.call("sim.loop", layerSim, func() { n = drain(rep) })
	var res *sim.Result
	d += tr.call("sim.Result", layerSim, func() { res, err = rep.Result() })
	return res, n, d, err
}

// check pins the first ops at the default seed and requires every run of
// op 0 to reproduce the first bit for bit.
func (o *overload) check(i int, res *sim.Result) error {
	if completed(res) == 0 || math.IsNaN(res.TotalPower.Mean) {
		return fmt.Errorf("overload op %d: degenerate result (%d completions, power %g)",
			i, completed(res), res.TotalPower.Mean)
	}
	if err := checkPin(o.pinned, i, res); err != nil {
		return err
	}
	if i != 0 {
		return nil
	}
	d, err := digest(res)
	if err != nil {
		return err
	}
	if o.first == "" {
		o.first = d
	} else if d != o.first {
		return fmt.Errorf("overload: re-running op 0 gave digest %s, its first run gave %s", d, o.first)
	}
	return nil
}

func (o *overload) warmup() error {
	res, _, _, err := o.replicate(nil, warmupOp, true)
	if err != nil {
		return err
	}
	return o.check(warmupOp, res)
}

func (o *overload) run(s *session) error {
	i := 0
	for ; s.more(); i++ {
		s.op(i, func(tr *tracer) (time.Duration, error) {
			res, n, d, err := o.replicate(tr, i, true)
			if err != nil {
				return d, err
			}
			if tr != nil {
				s.f.events += n
				s.f.reps++
				s.f.jobs += completed(res)
			}
			return d, o.check(i, res)
		})
	}
	// The last op re-runs op 0: the event loop must be bit-reproducible.
	s.op(i, func(tr *tracer) (time.Duration, error) {
		res, _, d, err := o.replicate(tr, 0, true)
		if err != nil {
			return d, err
		}
		return d, o.check(0, res)
	})
	if s.tr == nil {
		return nil
	}
	pairs := obsPairs
	if s.maxOps > 0 {
		pairs = min(pairs, s.maxOps)
	}
	for p := 0; p < pairs; p++ {
		for k := 0; k < 2; k++ {
			attached := (p+k)%2 == 1
			_, _, d, err := o.replicate(nil, p, attached)
			if err != nil {
				return err
			}
			if attached {
				s.f.attached = append(s.f.attached, ms(d))
			} else {
				s.f.detached = append(s.f.detached, ms(d))
			}
		}
	}
	res, _, _, err := o.replicate(nil, 0, true)
	if err != nil {
		return err
	}
	s.probed(res)
	return nil
}
