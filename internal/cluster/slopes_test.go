package cluster

import (
	"math"
	"testing"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// slopeCheck is FuzzTierSlopes' comparison of one derivative d with its
// central difference fd: they must agree within rel of fd plus abs of
// scale, the quantity divided by the speed's power, the size of the
// difference's rounding error.
func slopeCheck(d, fd, scale, rel, abs float64) bool {
	return math.Abs(d-fd) <= rel*math.Abs(fd)+abs*scale
}

// FuzzTierSlopes: the derivatives TierModel.Eval returns with its values
// match central differences of its values alone, 1e-5 of the speed wide,
// for every class's response time and the tier's power, and the values are
// the same bits with and without them. The tiers have two classes with CV²
// in {0, 0.3, 1, 2.5} (deterministic, Erlang, exponential and
// hyperexponential service), one server under each discipline or 2–16
// servers under FCFS and non-preemptive priority, an availability in
// (0, 1], and a power law, linear or table power model, the table evaluated
// off its listed speeds. Tiers loaded above 95% within the differences'
// reach are skipped: there the differences, not the derivatives, lose
// their accuracy.
func FuzzTierSlopes(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), 3.1, 1.0, 0.4, 0.3, 1.0, 0.6)
	f.Add(uint8(1), uint8(1), uint8(5), uint8(1), 2.2, 0.93, 0.7, 0.5, 0.8, 1.1)
	f.Add(uint8(0), uint8(2), uint8(15), uint8(2), 4.7, 0.8, 0.9, 0.6, 1.2, 0.7)
	f.Add(uint8(7), uint8(1), uint8(11), uint8(0), 1.9, 1.0, 2.5, 1.5, 0.9, 1.3)
	f.Add(uint8(15), uint8(0), uint8(6), uint8(2), 3.3, 0.97, 6.0, 4.0, 1.0, 1.0)
	f.Add(uint8(3), uint8(4), uint8(12), uint8(1), 6.9, 0.5, 0.5, 0.0, 2.0, 0.4)
	f.Fuzz(func(t *testing.T, servers, disc, cvs, pm uint8, s, avail, l0, l1, w0, w1 float64) {
		d := queueing.Discipline(disc % 3)
		c := 1
		if d != queueing.PreemptiveResume {
			c += int(servers % 16)
		}
		cv2 := [4]float64{0, 0.3, 1, 2.5}
		for _, v := range []float64{avail, l0, l1, w0, w1, s} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if !(avail > 0.05 && avail <= 1 && l0 >= 0 && l1 >= 0 && l0+l1 <= 1e3 &&
			w0 >= 0.01 && w0 <= 100 && w1 >= 0.01 && w1 <= 100 && s >= 0.1 && s <= 100) {
			t.Skip()
		}
		demands := []queueing.Demand{{Work: w0, CV2: cv2[cvs%4]}, {Work: w1, CV2: cv2[(cvs/4)%4]}}
		m := tierModel(c, d, avail, demands, []float64{l0, l1})
		h := 1e-5 * s
		switch pm % 3 {
		case 1:
			m.Power = power.Linear{Idle: 50, Slope: 20}
		case 2:
			tb, err := power.NewTable(30, []float64{1, 2.5, 4, 5.5, 8}, []float64{40, 46, 69, 134, 226})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range tb.Speeds {
				if math.Abs(s-x) <= 3*h {
					t.Skip()
				}
			}
			m.Power = tb
		default:
			pl, err := power.NewPowerLaw(100, 10, 2+float64(pm%7)/6)
			if err != nil {
				t.Fatal(err)
			}
			m.Power = pl
		}
		// The least loaded point the differences reach must be below 95%.
		if _, resp, tm, err := m.Eval(s-2*h, nil, nil); err != nil || tm.Utilization > 0.95 ||
			math.IsInf(resp[0], 1) || math.IsInf(resp[1], 1) {
			t.Skip()
		}

		// value returns class k's response time (k < 2) or the power at x.
		value := func(x float64, k int) float64 {
			_, resp, tm, err := m.Eval(x, nil, nil)
			if err != nil {
				t.Fatalf("speed %g: %v", x, err)
			}
			if k < len(resp) {
				return resp[k]
			}
			return tm.Power.Static + tm.Power.Dynamic
		}
		wait0, resp0, tm0, err := m.Eval(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wait0, resp0 = append([]float64(nil), wait0...), append([]float64(nil), resp0...)
		d1, d2 := make([]float64, 3), make([]float64, 3)
		wait, resp, tm, err := m.Eval(s, d1, d2)
		if err != nil {
			t.Fatal(err)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for k := range resp {
			if !same(wait[k], wait0[k]) || !same(resp[k], resp0[k]) {
				t.Fatalf("class %d: wait/resp %v/%v with derivatives, %v/%v without", k, wait[k], resp[k], wait0[k], resp0[k])
			}
		}
		if tm != tm0 {
			t.Fatalf("metrics %+v with derivatives, %+v without", tm, tm0)
		}
		for k := 0; k < 3; k++ {
			lo, mid, hi := value(s-h, k), value(s, k), value(s+h, k)
			fd1, fd2 := (hi-lo)/(2*h), (hi-2*mid+lo)/(h*h)
			if !slopeCheck(d1[k], fd1, math.Abs(mid)/s, 1e-6, 1e-8) {
				t.Errorf("%d servers %v, quantity %d at speed %g: ∂/∂s %.12g, central difference %.12g", c, d, k, s, d1[k], fd1)
			}
			if !slopeCheck(d2[k], fd2, math.Abs(mid)/(s*s), 1e-4, 1e-4) {
				t.Errorf("%d servers %v, quantity %d at speed %g: ∂²/∂s² %.12g, central difference %.12g", c, d, k, s, d2[k], fd2)
			}
		}
	})
}
