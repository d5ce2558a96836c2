package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

// classInput is one class of a test station: its Poisson arrival rate and
// service-time distribution.
type classInput struct {
	Lambda  float64
	Service ServiceDist
}

// priorityMMc runs PriorityTimes on the classes, with the moments read from
// their distributions (0 for a nil one, which PriorityTimes rejects).
func priorityMMc(classes []classInput, c int, d Discipline) (wait, resp []float64, err error) {
	n := len(classes)
	lam, m1, m2 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, cl := range classes {
		lam[i] = cl.Lambda
		if cl.Service != nil {
			m1[i], m2[i] = cl.Service.Mean(), cl.Service.SecondMoment()
		}
	}
	wait, resp = make([]float64, n), make([]float64, n)
	if _, err := PriorityTimes(c, d, lam, m1, m2, wait, resp, nil, nil); err != nil {
		return nil, nil, err
	}
	return wait, resp, nil
}

// priorityMG1 is priorityMMc with one server.
func priorityMG1(classes []classInput, d Discipline) (wait, resp []float64, err error) {
	return priorityMMc(classes, 1, d)
}

// utilization returns Utilization for the classes.
func utilization(classes []classInput, c int) float64 {
	lam, m1 := make([]float64, len(classes)), make([]float64, len(classes))
	for i, cl := range classes {
		lam[i], m1[i] = cl.Lambda, cl.Service.Mean()
	}
	return Utilization(c, lam, m1)
}

func twoClasses(l1, l2, m1, m2 float64) []classInput {
	return []classInput{
		{Lambda: l1, Service: NewExponential(m1)},
		{Lambda: l2, Service: NewExponential(m2)},
	}
}

func TestPriorityMG1SingleClassMatchesPK(t *testing.T) {
	for _, d := range []Discipline{FCFS, NonPreemptive, PreemptiveResume} {
		cl := []classInput{{Lambda: 0.6, Service: NewExponential(1)}}
		wait, resp, err := priorityMG1(cl, d)
		if err != nil {
			t.Fatal(err)
		}
		mg1, _ := NewMG1(0.6, NewExponential(1))
		if !almostEq(wait[0], mg1.MeanWait(), 1e-12) {
			t.Errorf("%v: single-class wait %g != P-K %g", d, wait[0], mg1.MeanWait())
		}
		if !almostEq(resp[0], mg1.MeanResponse(), 1e-12) {
			t.Errorf("%v: single-class response mismatch", d)
		}
	}
}

func TestPriorityMG1CobhamKnownValue(t *testing.T) {
	// Two exponential classes, λ1=λ2=0.25, E[S]=1 each:
	// ρ1=ρ2=0.25, R = (0.25·2 + 0.25·2)/2 = 0.5.
	// W1 = 0.5/(1·0.75) = 2/3; W2 = 0.5/(0.75·0.5) = 4/3.
	wait, resp, err := priorityMG1(twoClasses(0.25, 0.25, 1, 1), NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(wait[0], 2.0/3, 1e-12) {
		t.Errorf("W1 = %g, want 2/3", wait[0])
	}
	if !almostEq(wait[1], 4.0/3, 1e-12) {
		t.Errorf("W2 = %g, want 4/3", wait[1])
	}
	if !almostEq(resp[0], wait[0]+1, 1e-12) || !almostEq(resp[1], wait[1]+1, 1e-12) {
		t.Error("responses should add the service mean")
	}
}

func TestPriorityMG1PreemptiveKnownValue(t *testing.T) {
	// Same setup. Preemptive-resume:
	// T1 = E[S1]/(1−0) + R1/((1)(1−σ1)), R1 = 0.25·2/2 = 0.25.
	// T1 = 1 + 0.25/0.75 = 4/3.
	// T2 = 1/(1−0.25) + 0.5/((0.75)(0.5)) = 4/3 + 4/3 = 8/3.
	_, resp, err := priorityMG1(twoClasses(0.25, 0.25, 1, 1), PreemptiveResume)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(resp[0], 4.0/3, 1e-12) {
		t.Errorf("T1 = %g, want 4/3", resp[0])
	}
	if !almostEq(resp[1], 8.0/3, 1e-12) {
		t.Errorf("T2 = %g, want 8/3", resp[1])
	}
}

func TestPreemptiveHighClassIgnoresLowClass(t *testing.T) {
	// Under preemptive-resume the top class sees a private M/G/1:
	// its response must not depend on lower-class load at all.
	base := twoClasses(0.3, 0.1, 1, 1)
	loaded := twoClasses(0.3, 0.55, 1, 1)
	_, r1, err := priorityMG1(base, PreemptiveResume)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := priorityMG1(loaded, PreemptiveResume)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r1[0], r2[0], 1e-12) {
		t.Errorf("top-class response changed with low-class load: %g vs %g", r1[0], r2[0])
	}
	mg1, _ := NewMG1(0.3, NewExponential(1))
	if !almostEq(r1[0], mg1.MeanResponse(), 1e-12) {
		t.Errorf("top class should see a private M/M/1: %g vs %g", r1[0], mg1.MeanResponse())
	}
}

func TestNonPreemptiveHighClassSeesResidualOfLow(t *testing.T) {
	// Under non-preemptive priority the top class IS delayed by the
	// residual service of low-priority jobs: adding low load must
	// increase the top class's wait.
	base := twoClasses(0.3, 0.1, 1, 1)
	loaded := twoClasses(0.3, 0.5, 1, 1)
	w1, _, _ := priorityMG1(base, NonPreemptive)
	w2, _, _ := priorityMG1(loaded, NonPreemptive)
	if !(w2[0] > w1[0]) {
		t.Errorf("top-class wait should grow with low-class load: %g vs %g", w1[0], w2[0])
	}
}

// Work conservation (Kleinrock's conservation law): under any non-preemptive
// work-conserving discipline with exponential service,
// Σ ρ_k W_k is invariant. Compare priority vs FCFS.
func TestConservationLaw(t *testing.T) {
	f := func(a, b, c float64) bool {
		l1 := 0.05 + math.Mod(math.Abs(a), 0.3)
		l2 := 0.05 + math.Mod(math.Abs(b), 0.3)
		l3 := 0.05 + math.Mod(math.Abs(c), 0.25)
		if math.IsNaN(l1 + l2 + l3) {
			return true
		}
		classes := []classInput{
			{Lambda: l1, Service: NewExponential(1)},
			{Lambda: l2, Service: NewExponential(1)},
			{Lambda: l3, Service: NewExponential(1)},
		}
		if utilization(classes, 1) >= 0.98 {
			return true
		}
		wNP, _, err := priorityMG1(classes, NonPreemptive)
		if err != nil {
			return false
		}
		wF, _, err := priorityMG1(classes, FCFS)
		if err != nil {
			return false
		}
		var sNP, sF float64
		for k, cl := range classes {
			rho := cl.Lambda * cl.Service.Mean()
			sNP += rho * wNP[k]
			sF += rho * wF[k]
		}
		return almostEq(sNP, sF, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPriorityOrderingInvariant(t *testing.T) {
	// With identical service distributions, higher priority classes must
	// never wait longer than lower ones, under both disciplines.
	f := func(a, b, c float64) bool {
		l1 := 0.02 + math.Mod(math.Abs(a), 0.3)
		l2 := 0.02 + math.Mod(math.Abs(b), 0.3)
		l3 := 0.02 + math.Mod(math.Abs(c), 0.3)
		if math.IsNaN(l1 + l2 + l3) {
			return true
		}
		classes := []classInput{
			{Lambda: l1, Service: NewExponential(1)},
			{Lambda: l2, Service: NewExponential(1)},
			{Lambda: l3, Service: NewExponential(1)},
		}
		if utilization(classes, 1) >= 0.97 {
			return true
		}
		for _, d := range []Discipline{NonPreemptive, PreemptiveResume} {
			wait, _, err := priorityMG1(classes, d)
			if err != nil {
				return false
			}
			if !(wait[0] <= wait[1]+1e-12 && wait[1] <= wait[2]+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPriorityMG1PartialStability(t *testing.T) {
	// σ1 = 0.5 < 1 but σ2 = 1.5: class 0 finite, class 1 diverges.
	wait, resp, err := priorityMG1(twoClasses(0.5, 1.0, 1, 1), NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(wait[0], 1) {
		t.Error("high class should remain finite")
	}
	if !math.IsInf(wait[1], 1) || !math.IsInf(resp[1], 1) {
		t.Error("low class should diverge")
	}
	// FCFS: everyone diverges.
	wf, _, _ := priorityMG1(twoClasses(0.5, 1.0, 1, 1), FCFS)
	if !math.IsInf(wf[0], 1) {
		t.Error("FCFS should diverge for all classes when overloaded")
	}
}

func TestPriorityMMcReducesToMG1(t *testing.T) {
	classes := twoClasses(0.2, 0.3, 1, 1)
	w1, r1, err := priorityMMc(classes, 1, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	w2, r2, err := priorityMG1(classes, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	for k := range classes {
		if !almostEq(w1[k], w2[k], 1e-12) || !almostEq(r1[k], r2[k], 1e-12) {
			t.Errorf("class %d: c=1 M/M/c %g/%g != M/G/1 %g/%g", k, w1[k], r1[k], w2[k], r2[k])
		}
	}
}

func TestPriorityMMcSingleClassMatchesErlangC(t *testing.T) {
	cl := []classInput{{Lambda: 1.2, Service: NewExponential(1)}}
	wait, _, err := priorityMMc(cl, 2, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewMMc(1.2, 1, 2)
	if !almostEq(wait[0], q.MeanWait(), 1e-12) {
		t.Errorf("single-class M/M/c priority wait %g != Erlang-C %g", wait[0], q.MeanWait())
	}
}

func TestPriorityMMcFCFSAllClassesEqualWait(t *testing.T) {
	classes := twoClasses(0.5, 0.7, 1, 1)
	wait, _, err := priorityMMc(classes, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(wait[0], wait[1], 1e-12) {
		t.Errorf("FCFS waits differ: %g vs %g", wait[0], wait[1])
	}
}

func TestPriorityMMcOrdering(t *testing.T) {
	classes := []classInput{
		{Lambda: 0.5, Service: NewExponential(1)},
		{Lambda: 0.5, Service: NewExponential(1)},
		{Lambda: 0.4, Service: NewExponential(1)},
	}
	wait, _, err := priorityMMc(classes, 2, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if !(wait[0] < wait[1] && wait[1] < wait[2]) {
		t.Errorf("waits not ordered: %v", wait)
	}
}

func TestPriorityMMcPreemptiveMultiServerRejected(t *testing.T) {
	if _, _, err := priorityMMc(twoClasses(0.1, 0.1, 1, 1), 2, PreemptiveResume); err == nil {
		t.Error("preemptive multi-server should be rejected")
	}
}

func TestPriorityMMcZeroTraffic(t *testing.T) {
	classes := []classInput{
		{Lambda: 0, Service: NewExponential(2)},
		{Lambda: 0, Service: NewExponential(3)},
	}
	wait, resp, err := priorityMMc(classes, 4, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	for k := range classes {
		if wait[k] != 0 {
			t.Errorf("class %d wait = %g with no traffic", k, wait[k])
		}
		if resp[k] != classes[k].Service.Mean() {
			t.Errorf("class %d response = %g", k, resp[k])
		}
	}
}

func TestValidateClassesErrors(t *testing.T) {
	if _, _, err := priorityMG1(nil, FCFS); err == nil {
		t.Error("empty classes accepted")
	}
	bad := []classInput{{Lambda: -1, Service: NewExponential(1)}}
	if _, _, err := priorityMG1(bad, FCFS); err == nil {
		t.Error("negative lambda accepted")
	}
	noSvc := []classInput{{Lambda: 1, Service: nil}}
	if _, _, err := priorityMG1(noSvc, FCFS); err == nil {
		t.Error("nil service accepted")
	}
}

func TestDisciplineString(t *testing.T) {
	if FCFS.String() != "FCFS" || NonPreemptive.String() != "non-preemptive" ||
		PreemptiveResume.String() != "preemptive-resume" {
		t.Error("discipline names wrong")
	}
	if Discipline(99).String() == "" {
		t.Error("unknown discipline should still render")
	}
}
