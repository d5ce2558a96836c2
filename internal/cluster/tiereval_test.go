package cluster

import (
	"fmt"
	"math"
	"testing"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// The reference below is TierModel.Eval as it was computed before the
// allocation-free kernel: one boxed service distribution per class, the
// priority formulas over those distributions (allocating their own
// buffers), and the utilization from a second pass over the same inputs.
// TierModel.Eval must match it bit for bit.

// refClass is one class at a station: its arrival rate and service-time
// distribution.
type refClass struct {
	lambda  float64
	service queueing.ServiceDist
}

// refDist is the moment-matching recipe: Deterministic, Erlang-k with
// k = round(1/CV²), Exponential or balanced hyperexponential.
func refDist(mean, cv2 float64) queueing.ServiceDist {
	switch {
	case cv2 == 0:
		return queueing.NewDeterministic(mean)
	case cv2 < 1:
		k := int(math.Round(1 / cv2))
		if k < 1 {
			k = 1
		}
		return queueing.NewErlang(mean, k)
	case cv2 == 1: //lint:waive floateq reason="the reference recipe selects the exponential family at exactly 1" until=2027-08-01
		return queueing.NewExponential(mean)
	default:
		return queueing.NewHyperExpCV2(mean, cv2)
	}
}

func refValidate(classes []refClass) error {
	if len(classes) == 0 {
		return fmt.Errorf("queueing: no classes")
	}
	for i, c := range classes {
		if c.lambda < 0 || math.IsNaN(c.lambda) || math.IsInf(c.lambda, 0) {
			return fmt.Errorf("queueing: class %d has invalid arrival rate %g", i, c.lambda)
		}
		if c.service == nil || !(c.service.Mean() > 0) {
			return fmt.Errorf("queueing: class %d has invalid service distribution", i)
		}
	}
	return nil
}

// refPriorityMG1 is the single-server priority queue: Pollaczek–Khinchine
// for FCFS, Cobham for non-preemptive, and the preemptive-resume response.
func refPriorityMG1(classes []refClass, d queueing.Discipline) (wait, resp []float64, err error) {
	if err := refValidate(classes); err != nil {
		return nil, nil, err
	}
	k := len(classes)
	wait = make([]float64, k)
	resp = make([]float64, k)
	sigma := make([]float64, k)
	rk := make([]float64, k)
	cum, rcum := 0.0, 0.0
	for i, c := range classes {
		cum += c.lambda * c.service.Mean()
		rcum += c.lambda * c.service.SecondMoment() / 2
		sigma[i] = cum
		rk[i] = rcum
	}
	total := sigma[k-1]
	rTotal := rk[k-1]
	for i, c := range classes {
		es := c.service.Mean()
		prev := 0.0
		if i > 0 {
			prev = sigma[i-1]
		}
		switch d {
		case queueing.FCFS:
			if total >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			wait[i] = rTotal / (1 - total)
			resp[i] = wait[i] + es
		case queueing.NonPreemptive:
			if sigma[i] >= 1 || prev >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			wait[i] = rTotal / ((1 - prev) * (1 - sigma[i]))
			resp[i] = wait[i] + es
		case queueing.PreemptiveResume:
			if sigma[i] >= 1 || prev >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			resp[i] = es/(1-prev) + rk[i]/((1-prev)*(1-sigma[i]))
			wait[i] = resp[i] - es
		default:
			return nil, nil, fmt.Errorf("queueing: unknown discipline %v", d)
		}
	}
	return wait, resp, nil
}

// refPriorityMMc is the c-server priority queue with the two-moment
// correction on the aggregate service distribution.
func refPriorityMMc(classes []refClass, c int, d queueing.Discipline) (wait, resp []float64, err error) {
	if err := refValidate(classes); err != nil {
		return nil, nil, err
	}
	if c < 1 {
		return nil, nil, fmt.Errorf("queueing: server count %d < 1", c)
	}
	if c == 1 {
		return refPriorityMG1(classes, d)
	}
	if d == queueing.PreemptiveResume {
		return nil, nil, fmt.Errorf("queueing: no closed form for preemptive-resume with %d > 1 servers", c)
	}
	k := len(classes)
	var lamTot, m1, m2 float64
	for _, cl := range classes {
		lamTot += cl.lambda
		m1 += cl.lambda * cl.service.Mean()
		m2 += cl.lambda * cl.service.SecondMoment()
	}
	if lamTot == 0 {
		wait = make([]float64, k)
		resp = make([]float64, k)
		for i, cl := range classes {
			resp[i] = cl.service.Mean()
		}
		return wait, resp, nil
	}
	m1 /= lamTot
	m2 /= lamTot
	cv2 := m2/(m1*m1) - 1
	a := lamTot * m1
	pd := queueing.ErlangC(c, a)
	base := (1 + cv2) / 2 * pd * m1 / float64(c)
	sigma := make([]float64, k)
	cum := 0.0
	for i, cl := range classes {
		cum += cl.lambda * cl.service.Mean() / float64(c)
		sigma[i] = cum
	}
	wait = make([]float64, k)
	resp = make([]float64, k)
	for i, cl := range classes {
		prev := 0.0
		if i > 0 {
			prev = sigma[i-1]
		}
		switch d {
		case queueing.FCFS:
			if sigma[k-1] >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			wait[i] = base / (1 - sigma[k-1])
		case queueing.NonPreemptive:
			if sigma[i] >= 1 || prev >= 1 {
				wait[i], resp[i] = math.Inf(1), math.Inf(1)
				continue
			}
			wait[i] = base / ((1 - prev) * (1 - sigma[i]))
		default:
			return nil, nil, fmt.Errorf("queueing: unknown discipline %v", d)
		}
		resp[i] = wait[i] + cl.service.Mean()
	}
	return wait, resp, nil
}

// refEval evaluates the model at nominal speed s without touching it.
func refEval(m *TierModel, s float64) (wait, resp []float64, tm TierMetrics, err error) {
	st := *m.Station
	st.Speed = s * m.Avail
	classes := make([]refClass, len(st.Demands))
	for k, d := range st.Demands {
		mean := d.Work / st.Speed
		if !(mean > 0) || math.IsInf(mean, 1) {
			return nil, nil, tm, fmt.Errorf("queueing: station %q class %d service time %g (work %g at speed %g) is not positive and finite",
				st.Name, k, mean, d.Work, st.Speed)
		}
		classes[k] = refClass{lambda: m.Arrivals[k], service: refDist(mean, d.CV2)}
	}
	if wait, resp, err = refPriorityMMc(classes, st.Servers, st.Discipline); err != nil {
		return nil, nil, tm, err
	}
	var u float64
	for _, cl := range classes {
		u += cl.lambda * cl.service.Mean()
	}
	rho := u / float64(st.Servers)
	br := power.StationBreakdown(m.Power, s, st.Servers, rho*m.Avail)
	br.Static *= m.Avail
	return wait, resp, TierMetrics{Name: st.Name, Utilization: rho, Power: br}, nil
}

// evalOutcome is one evaluation's results, or the panic it raised.
type evalOutcome struct {
	wait, resp []float64
	tm         TierMetrics
	err        error
	panicked   any
}

func outcome(eval func() ([]float64, []float64, TierMetrics, error)) (o evalOutcome) {
	defer func() { o.panicked = recover() }()
	o.wait, o.resp, o.tm, o.err = eval()
	// Copy the results out of the model's buffers.
	o.wait, o.resp = append([]float64(nil), o.wait...), append([]float64(nil), o.resp...)
	return o
}

// diffBits describes the first difference between got and want, with every
// float compared by its bits; "" when they match.
func diffBits(got, want evalOutcome) string {
	if (got.panicked == nil) != (want.panicked == nil) {
		return fmt.Sprintf("panic %v, reference panic %v", got.panicked, want.panicked)
	}
	if got.panicked != nil {
		return ""
	}
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		return fmt.Sprintf("error %v, reference error %v", got.err, want.err)
	}
	if got.err != nil {
		return ""
	}
	if len(got.resp) != len(want.resp) || len(got.wait) != len(want.wait) {
		return fmt.Sprintf("%d/%d results, reference %d/%d", len(got.wait), len(got.resp), len(want.wait), len(want.resp))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k := range got.resp {
		if !same(got.wait[k], want.wait[k]) || !same(got.resp[k], want.resp[k]) {
			return fmt.Sprintf("class %d wait/resp %v/%v, reference %v/%v", k, got.wait[k], got.resp[k], want.wait[k], want.resp[k])
		}
	}
	g, w := got.tm, want.tm
	if g.Name != w.Name || !same(g.Utilization, w.Utilization) ||
		!same(g.Power.Static, w.Power.Static) || !same(g.Power.Dynamic, w.Power.Dynamic) {
		return fmt.Sprintf("metrics %+v, reference %+v", g, w)
	}
	return ""
}

// checkTierEval evaluates m at s both ways and reports any difference. Eval
// runs twice, without and with derivatives, and must match the reference
// both times.
func checkTierEval(t testing.TB, name string, m *TierModel, s float64) {
	t.Helper()
	want := outcome(func() ([]float64, []float64, TierMetrics, error) { return refEval(m, s) })
	d1, d2 := make([]float64, len(m.Arrivals)+1), make([]float64, len(m.Arrivals)+1)
	for _, slopes := range []bool{false, true} {
		got := outcome(func() ([]float64, []float64, TierMetrics, error) {
			if slopes {
				return m.Eval(s, d1, d2)
			}
			return m.Eval(s, nil, nil)
		})
		if d := diffBits(got, want); d != "" {
			t.Errorf("%s at speed %v (derivatives %t): %s", name, s, slopes, d)
		}
	}
}

// tierModel returns a model of one station with the given demands and
// arrival rates.
func tierModel(servers int, d queueing.Discipline, avail float64, demands []queueing.Demand, arrivals []float64) *TierModel {
	pm, _ := power.NewPowerLaw(100, 10, 3)
	m := &TierModel{
		Station:  &queueing.Station{Name: "t", Servers: servers, Discipline: d, Demands: demands},
		Visits:   make([]float64, len(arrivals)),
		Arrivals: arrivals,
		Power:    pm,
		Avail:    avail,
	}
	m.setScratch(make([]float64, 4*len(arrivals)))
	return m
}

// TestTierEvalMatchesReference checks TierModel.Eval bit for bit against
// the reference over every CV² family (0, below 1 with integral and
// non-integral 1/CV², 1, above 1), every discipline, one and several
// servers, availability, zero traffic, saturated tiers and the error
// cases. Some hyperexponential classes have a mean P·M1+(1−P)·M2 that
// differs from Work/Speed in the last bit, which the test confirms it
// covers. It also evaluates every tier of a cluster's models in turn, so
// each tier's buffers are checked to be their own.
func TestTierEvalMatchesReference(t *testing.T) {
	cv2s := []float64{0, 0.25, 0.3, 0.7, 1, 1.7, 3, 6.25}
	lambdas := [][]float64{
		{0, 0, 0},            // zero traffic
		{0.3, 0.45, 0.2},     // moderate
		{0.7, 0, 1.3},        // a class without traffic
		{1.9, 2.6, 3.1},      // saturated at the slower speeds
		{0.3, math.NaN(), 1}, // invalid rates
		{0.3, -0.1, 1},
	}
	works := []float64{0.7, 1.1, 0.45}
	hyperOff := 0 // classes whose hyperexponential mean is off Work/Speed
	for _, c := range []int{1, 2, 5} {
		for _, d := range []queueing.Discipline{queueing.FCFS, queueing.NonPreemptive, queueing.PreemptiveResume} {
			for _, avail := range []float64{1, 0.93} {
				for ci, cv2 := range cv2s {
					for li, lam := range lambdas {
						demands := make([]queueing.Demand, len(works))
						for k, w := range works {
							// Mix the families across classes as well.
							demands[k] = queueing.Demand{Work: w, CV2: cv2s[(ci+k)%len(cv2s)]}
						}
						m := tierModel(c, d, avail, demands, append([]float64(nil), lam...))
						for _, s := range []float64{0.9, 2.3, 7.1} {
							checkTierEval(t, fmt.Sprintf("c=%d %v A=%g cv2=%g λ#%d", c, d, avail, cv2, li), m, s)
							for _, dm := range demands {
								if mean := dm.Work / (s * avail); dm.CV2 > 1 && refDist(mean, dm.CV2).Mean() != mean {
									hyperOff++
								}
							}
						}
					}
				}
			}
		}
	}
	if hyperOff == 0 {
		t.Error("no case has a hyperexponential mean that differs from Work/Speed")
	}

	cl := testCluster()
	cl.Tiers[1].Servers = 3
	cl.Tiers[2].Discipline = queueing.PreemptiveResume
	cl.Tiers[2].Demands = []queueing.Demand{{Work: 1.2, CV2: 0.4}, {Work: 0.8, CV2: 3}}
	ms := cl.TierModels()
	var got []evalOutcome
	for j := range ms {
		got = append(got, evalOutcome{})
		got[j].wait, got[j].resp, got[j].tm, got[j].err = ms[j].Eval(3.3, nil, nil)
	}
	for j := range ms {
		want := outcome(func() ([]float64, []float64, TierMetrics, error) { return refEval(&ms[j], 3.3) })
		if d := diffBits(got[j], want); d != "" {
			t.Errorf("cluster tier %d after every tier's Eval: %s", j, d)
		}
	}
}

// TestTierEvalRejectsBadSpeeds: at a speed that is not positive and finite,
// or so small that a service time overflows, Eval returns an error on every
// service family, the hyperexponential one included, and does not panic.
// The model still evaluates at a good speed afterwards.
func TestTierEvalRejectsBadSpeeds(t *testing.T) {
	for _, cv2 := range []float64{0, 0.5, 1, 3} {
		m := tierModel(2, queueing.PreemptiveResume, 0.9,
			[]queueing.Demand{{Work: 1, CV2: cv2}, {Work: 0.5, CV2: cv2}}, []float64{0.2, 0.3})
		for _, s := range []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324} {
			o := outcome(func() ([]float64, []float64, TierMetrics, error) { return m.Eval(s, nil, nil) })
			if o.panicked != nil || o.err == nil {
				t.Errorf("CV² %g, speed %g: panic %v, error %v; want an error", cv2, s, o.panicked, o.err)
			}
		}
		checkTierEval(t, fmt.Sprintf("CV² %g after bad speeds", cv2), m, 2)
	}
}

// FuzzTierEvalMatchesReference checks TierModel.Eval bit for bit against
// the reference on arbitrary two-class stations: any server count up to
// 256, discipline, speed, availability, rates, works and CV²s. Errors must
// match, and so must panics (the distribution constructors reject a CV²
// they cannot represent).
func FuzzTierEvalMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(1), 2.0, 1.0, 0.3, 1.0, 1.0, 0.4, 0.5, 0.5)
	f.Add(uint8(3), uint8(0), 1.7, 0.9, 0.8, 1.2, 0.3, 1.1, 0.6, 4.0)
	f.Add(uint8(0), uint8(2), 3.1, 0.95, 0.5, 0.9, 0.0, 0.2, 1.3, 2.5)
	f.Add(uint8(4), uint8(2), 3.0, 1.0, 0.5, 1.0, 1.0, 0.5, 1.0, 1.0)
	f.Add(uint8(1), uint8(1), 1.0, 1.0, 0.0, 1.0, 0.7, 0.0, 1.0, 0.7)
	f.Add(uint8(0), uint8(0), 0.5, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, servers, disc uint8, s, avail, l0, w0, cv0, l1, w1, cv1 float64) {
		d := queueing.Discipline(disc % 3)
		demands := []queueing.Demand{{Work: w0, CV2: cv0}, {Work: w1, CV2: cv1}}
		m := tierModel(int(servers)+1, d, avail, demands, []float64{l0, l1})
		checkTierEval(t, "fuzz", m, s)
	})
}
