// Package clusterq reproduces "Power and Performance Management in
// Priority-Type Cluster Computing Systems" (Kaiqi Xiong, IPDPS 2011): an
// analytical model of multi-tier clusters serving multiple priority classes
// of customers, power/performance optimizers over DVFS speeds and server
// counts, and a discrete-event simulator that validates the model.
//
// This package is the supported facade: it re-exports the model types, the
// paper's optimization problems (plus the extensions: dual decomposition,
// percentile bounds, TCO, splitting, fork-join), and the simulator, so
// downstream users program against one import. The implementation lives in internal/*
// (queueing theory, power models, optimization toolkit, simulator,
// experiment harness); see DESIGN.md for the map.
//
// # Quick start
//
//	c := clusterq.Enterprise3Tier(1.0)       // canonical 3-tier scenario
//	m, _ := clusterq.Evaluate(c)             // analytical delays & power
//	sol, _ := clusterq.MinimizeEnergy(c, clusterq.EnergyOptions{MaxWeightedDelay: 3})
//	res, _ := clusterq.Simulate(sol.Cluster, clusterq.SimOptions{Horizon: 20000})
//
// See examples/ for runnable programs and cmd/ for the CLI tools.
package clusterq

import (
	"clusterq/internal/cluster"
	"clusterq/internal/control"
	"clusterq/internal/core"
	"clusterq/internal/obs"
	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/power"
	"clusterq/internal/queueing"
	"clusterq/internal/sim"
	"clusterq/internal/workload"
)

// Model types.
type (
	// Cluster is the full system model: tiers, classes, routes.
	Cluster = cluster.Cluster
	// Tier is one stage of the application: a pool of DVFS servers.
	Tier = cluster.Tier
	// Class is one priority class of customers with its SLA.
	Class = cluster.Class
	// SLA captures per-class delay guarantees and pricing.
	SLA = cluster.SLA
	// Metrics is the analytical evaluation output (delays, power, energy).
	Metrics = cluster.Metrics
	// SLAReport records per-class SLA compliance.
	SLAReport = cluster.SLAReport
	// Demand is the work one class brings to one tier.
	Demand = queueing.Demand
	// ClassRouting is a probabilistic (Markov) routing chain for a class:
	// retries, branches, loops. Assign via Cluster.Routing.
	ClassRouting = queueing.ClassRouting
	// Discipline selects FCFS, NonPreemptive or PreemptiveResume.
	Discipline = queueing.Discipline
	// PowerModel maps server speed to power draw. Its methods must be
	// deterministic, side-effect-free functions of the speed: the simulator
	// evaluates them once per speed change, not per event.
	PowerModel = power.Model
	// PowerLaw is the κ·s^γ DVFS power model.
	PowerLaw = power.PowerLaw
)

// Scheduling disciplines.
const (
	FCFS             = queueing.FCFS
	NonPreemptive    = queueing.NonPreemptive
	PreemptiveResume = queueing.PreemptiveResume
)

// Solver types.
type (
	// Solution is the outcome of any optimizer.
	Solution = core.Solution
	// DelayOptions configures MinimizeDelay (problem C2).
	DelayOptions = core.DelayOptions
	// EnergyOptions configures MinimizeEnergy/MinimizeEnergyPerClass (C3).
	EnergyOptions = core.EnergyOptions
	// CostOptions configures MinimizeCost (C4).
	CostOptions = core.CostOptions
	// TailOptions configures MinimizeEnergyTail (C3 with percentile SLAs).
	TailOptions = core.TailOptions
	// TailBound is one class's percentile delay requirement.
	TailBound = core.TailBound
)

// Simulation types.
type (
	// SimOptions configures the discrete-event simulator.
	SimOptions = sim.Options
	// SimResult is the aggregated simulation output.
	SimResult = sim.Result
	// Profile is a time-varying arrival-rate function (dynamic extension).
	Profile = sim.Profile
	// Controller is a runtime DVFS policy (dynamic extension).
	Controller = sim.Controller
	// UtilizationPolicy is the reactive utilization-target DVFS controller.
	UtilizationPolicy = sim.UtilizationPolicy
	// SleepConfig enables the instant-off sleep policy on a tier.
	SleepConfig = sim.SleepConfig
	// FailureConfig enables breakdown/repair injection on a tier
	// (SimOptions.Failures; see DESIGN.md "Failure model").
	FailureConfig = sim.FailureConfig
	// DeadlineConfig gives a class per-attempt deadlines with
	// retry-with-backoff or abandonment (SimOptions.Deadlines).
	DeadlineConfig = sim.DeadlineConfig
	// SheddingConfig enables priority-aware admission control
	// (SimOptions.Shedding).
	SheddingConfig = sim.SheddingConfig
	// Schedule is a piecewise-constant multi-period rate profile
	// (staircases, business-hours patterns); build with NewSchedule.
	Schedule = sim.Schedule
	// PlanController re-plans the whole cluster once per control epoch
	// via SimOptions.PlanController (see DESIGN.md "Online control").
	PlanController = sim.PlanController
	// PlanObservation is the epoch snapshot handed to a PlanController:
	// per-tier observations plus windowed per-class rate estimates.
	PlanObservation = sim.PlanObservation
	// PlanDecision is a plan-level retune order (per-tier speeds and
	// effective server counts); the zero value holds every knob.
	PlanDecision = sim.PlanDecision
)

// ZeroWarmup requests a simulation with no warmup discard (an explicit
// SimOptions.Warmup of 0 still means "use the default"; see sim.ZeroWarmup).
const ZeroWarmup = sim.ZeroWarmup

// Observability types (see the "Observability" section in README.md).
type (
	// SimProbe attaches periodic time-series sampling and event counters
	// to a simulation via SimOptions.Probe.
	SimProbe = sim.Probe
	// Timeline is a sampled multi-series time series (queue lengths,
	// utilization, power, in-flight counts) recorded by a SimProbe.
	Timeline = obs.Timeline
	// MetricRegistry collects named counters and gauges and exposes them as
	// JSON or Prometheus text.
	MetricRegistry = obs.Registry
	// MetricSnapshot is one metric's point-in-time value as exposed by
	// MetricRegistry.Snapshot and WriteJSON.
	MetricSnapshot = obs.Snapshot
	// FlightRecorder is the fixed-capacity ring-buffer recorder of typed
	// lifecycle events, attached via SimOptions.Recorder; it assembles
	// per-job Spans and exports Chrome trace-event JSON.
	FlightRecorder = trace.Recorder
	// TraceEvent is one recorded lifecycle event (arrival, service start,
	// preempt, ...) in the FlightRecorder's ring.
	TraceEvent = trace.Event
	// Span is one job's assembled lifecycle: queue/service/preempted/backoff
	// components summing exactly to the sojourn.
	Span = trace.Span
	// SpanBreakdown aggregates closed spans per class (counts and summed
	// components).
	SpanBreakdown = trace.Breakdown
	// WindowConfig parameterizes the sliding-window estimators.
	WindowConfig = window.Config
	// WindowSet is the bank of streaming sliding-window sensors (per-class
	// arrival rate, mean and tail sojourn, per-tier utilization) attached
	// via SimOptions.Windows.
	WindowSet = window.Set
	// WindowClassSensor is one class's windowed readings.
	WindowClassSensor = window.ClassSensor
)

// Observability constructors.
var (
	// NewMetricRegistry creates an empty metric registry.
	NewMetricRegistry = obs.NewRegistry
	// NewTimeline creates a standalone timeline with the given series.
	NewTimeline = obs.NewTimeline
	// NewFlightRecorder creates a flight recorder with the given event
	// capacity (0 = default).
	NewFlightRecorder = trace.NewRecorder
	// NewWindowSet builds sliding-window sensors for a class/tier count.
	NewWindowSet = window.NewSet
	// ServeMetrics builds the live exposition mux (/metrics, /metrics.json,
	// /trace, /debug/pprof) over a registry and recorder, either nilable.
	ServeMetrics = obs.Mux
	// ListenAndServeMetrics binds an address and serves ServeMetrics on it
	// in the background, returning the bound address and a stop function.
	ListenAndServeMetrics = obs.ListenAndServe
)

// Time-varying arrival profile constructors (dynamic extension).
var (
	// NewSinusoid builds a smooth diurnal profile.
	NewSinusoid = sim.NewSinusoid
	// NewSquareWave builds a day/night step profile.
	NewSquareWave = sim.NewSquareWave
	// NewSchedule builds a validated piecewise-constant rate schedule.
	NewSchedule = sim.NewSchedule
)

// ServiceDist describes a service- or setup-time distribution through its
// moments (used e.g. by SleepConfig.Setup).
type ServiceDist = queueing.ServiceDist

// Distribution constructors for setup times and custom service shapes.
var (
	// ExpDist returns an exponential distribution with the given mean.
	ExpDist = queueing.NewExponential
	// DetDist returns a deterministic (constant) distribution.
	DetDist = queueing.NewDeterministic
	// ErlangDist returns an Erlang-k distribution with the given mean.
	ErlangDist = queueing.NewErlang
)

// NewPowerLaw returns the standard DVFS power model P = idle + κ·sᵞ.
func NewPowerLaw(idle, kappa, gamma float64) (PowerLaw, error) {
	return power.NewPowerLaw(idle, kappa, gamma)
}

// Evaluate computes the analytical metrics of a cluster (the paper's C1:
// per-class average end-to-end delay and average energy consumption).
func Evaluate(c *Cluster) (*Metrics, error) { return cluster.Evaluate(c) }

// CheckSLAs evaluates every class's SLA against the analytical model.
func CheckSLAs(c *Cluster, m *Metrics) ([]SLAReport, error) { return cluster.CheckSLAs(c, m) }

// DelayQuantile approximates the p-quantile of class k's end-to-end delay.
func DelayQuantile(c *Cluster, m *Metrics, k int, p float64) (float64, error) {
	return cluster.DelayQuantile(c, m, k, p)
}

// TotalCost returns the provisioning cost Σ servers × price.
func TotalCost(c *Cluster) float64 { return cluster.TotalCost(c) }

// MinimizeDelay solves problem C2: minimize average end-to-end delay subject
// to an average energy (power) budget, exactly, by Lagrangian dual
// decomposition: the same projected Newton ascent as MinimizeEnergyPerClass,
// on the budget's one multiplier.
func MinimizeDelay(c *Cluster, o DelayOptions) (*Solution, error) {
	return core.MinimizeDelay(c, o)
}

// MinimizeEnergy solves problem C3a: minimize average power subject to a
// bound on the aggregate average end-to-end delay, exactly, by Lagrangian
// dual decomposition: the same projected Newton ascent as
// MinimizeEnergyPerClass, on the bound's one multiplier.
func MinimizeEnergy(c *Cluster, o EnergyOptions) (*Solution, error) {
	return core.MinimizeEnergy(c, o)
}

// MinimizeEnergyPerClass solves problem C3b: minimize average power subject
// to per-class delay bounds, exactly, by Lagrangian dual decomposition:
// projected Newton ascent on one multiplier per bounded class.
func MinimizeEnergyPerClass(c *Cluster, o EnergyOptions) (*Solution, error) {
	return core.MinimizeEnergyPerClass(c, o)
}

// MinimizeCost solves problem C4: the cheapest server allocation (and speeds)
// meeting every priority class's SLA.
func MinimizeCost(c *Cluster, o CostOptions) (*Solution, error) {
	return core.MinimizeCost(c, o)
}

// MinimizeEnergyTail is the percentile flavour of C3: minimize average power
// subject to per-class TAIL delay guarantees P(D_k ≤ x_k) ≥ γ_k.
func MinimizeEnergyTail(c *Cluster, o TailOptions) (*Solution, error) {
	return core.MinimizeEnergyTail(c, o)
}

// ForkJoinResponse returns the Nelson–Tantawi approximation of the mean
// response time of a k-node fork-join job (exact for k ≤ 2); see
// SimulateForkJoin for the simulation counterpart.
func ForkJoinResponse(k int, lambda, mu float64) (float64, error) {
	return queueing.ForkJoinNelsonTantawi(k, lambda, mu)
}

// SimulateForkJoin measures a k-queue fork-join system by simulation.
var SimulateForkJoin = sim.SimulateForkJoin

// OptimalSplit returns the delay-minimizing split of Poisson rate λ across
// parallel M/M/1 pools (the dispatcher problem), via the square-root KKT
// waterfilling rule, together with the resulting mean delay.
func OptimalSplit(lambda float64, mus []float64) (x []float64, delay float64, err error) {
	return queueing.OptimalSplit(lambda, mus)
}

// Baseline allocators for comparisons.
var (
	// UniformDelayBaseline spends an energy budget with one common speed knob.
	UniformDelayBaseline = core.UniformDelayBaseline
	// UniformEnergyBaseline meets a delay bound with one common speed knob.
	UniformEnergyBaseline = core.UniformEnergyBaseline
	// UniformCostBaseline sizes all tiers with the same server count.
	UniformCostBaseline = core.UniformCostBaseline
	// ProportionalCostBaseline sizes tiers proportionally to their load.
	ProportionalCostBaseline = core.ProportionalCostBaseline
)

// Simulate runs the discrete-event simulator on the cluster (the paper's C5
// validation path) and aggregates replications into confidence intervals.
func Simulate(c *Cluster, o SimOptions) (*SimResult, error) { return sim.Run(c, o) }

// Online control (see DESIGN.md "Online control"): the model-driven
// autoscaler re-estimates per-class arrival rates from window sensors each
// control epoch and re-runs the paper's solvers at the live estimates.
type (
	// Autoscaler is the model-driven PlanController.
	Autoscaler = control.Controller
	// AutoscalerConfig parameterizes the autoscaler (smoothing, safety
	// margin).
	AutoscalerConfig = control.Config
	// AutoscalerStats counts the autoscaler's solves, deadband holds, and
	// infeasible-solve fallbacks.
	AutoscalerStats = control.Stats
)

// NewAutoscaler validates the config against the cluster and returns the
// model-driven controller; attach it via SimOptions.PlanController with a
// WindowSet in SimOptions.Windows and a positive SimOptions.ControlPeriod.
func NewAutoscaler(c *Cluster, cfg AutoscalerConfig) (*Autoscaler, error) {
	return control.New(c, cfg)
}

// Scenario constructors.
var (
	// Enterprise3Tier builds the canonical web→app→db scenario with
	// gold/silver/bronze classes; the argument scales the load.
	Enterprise3Tier = workload.Enterprise3Tier
	// Scalable builds a symmetric j-tier, k-class cluster.
	Scalable = workload.Scalable
	// ScaleArrivals multiplies every class's arrival rate.
	ScaleArrivals = workload.ScaleArrivals
	// CapacityFraction rescales arrivals to a bottleneck utilization.
	CapacityFraction = workload.CapacityFraction
	// DiurnalProfiles builds per-class sinusoidal profiles around a
	// scenario's nominal rates (transient control scenarios).
	DiurnalProfiles = workload.DiurnalProfiles
	// FlashCrowdProfiles builds per-class square-wave spike profiles.
	FlashCrowdProfiles = workload.FlashCrowdProfiles
	// StaircaseProfiles builds per-class cycling staircase profiles.
	StaircaseProfiles = workload.StaircaseProfiles
	// PeakFactor is the peak-to-nominal ratio of a profile set — what an
	// honest peak-provisioned static baseline is solved at.
	PeakFactor = workload.PeakFactor
)

// ParseConfig builds a cluster from a JSON description (see
// cluster.Config for the schema; cmd/slaplan and cmd/simrun consume it).
func ParseConfig(data []byte) (*Cluster, error) { return cluster.ParseConfig(data) }
