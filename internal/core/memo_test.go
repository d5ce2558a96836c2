package core

import (
	"encoding/binary"
	"math"
	"testing"

	"clusterq/internal/cluster"
	"clusterq/internal/power"
	"clusterq/internal/workload"
)

// memoClusters are the clusters FuzzTierMemoMatchesEval draws a tier from:
// the heavy-database cluster, whose power laws give each tier one piece,
// and the same cluster with the web tier on a five-speed power table, which
// gives that tier four pieces and so thirteen end checks.
func memoClusters(tb testing.TB) []*cluster.Cluster {
	table, err := power.NewTable(30, []float64{1, 2.5, 4, 5.5, 8}, []float64{40, 46, 69, 134, 226})
	if err != nil {
		tb.Fatal(err)
	}
	tabled := workload.Enterprise3TierHeavyDB(1)
	tabled.Tiers[0].Power = table
	return []*cluster.Cluster{workload.Enterprise3TierHeavyDB(1), tabled}
}

// memoPalette returns the speeds FuzzTierMemoMatchesEval picks from for
// tier j: its end checks, a Newton triple inside its range, speeds below its
// stability floor and above its range, and the values whose bits differ
// from their numeric equals (±0, NaNs of two payloads) or that are no speed
// at all (±Inf, negative, tiny).
func memoPalette(tf *tierFns, j int) []float64 {
	lo, hi := tf.lo[j], tf.hi[j]
	mid := lo + (hi-lo)/2
	p := []float64{
		mid - 1e-4*mid, mid, mid + 1e-4*mid, lo / 2, 0.99 * lo, 2 * hi,
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Inf(1), math.Inf(-1), -1, 1e-300,
	}
	knots := tf.tiers[j].knots
	for i := 1; i < len(knots); i++ {
		e := endChecks(knots[i-1], knots[i])
		p = append(p, e[:]...)
	}
	return p
}

// memoOutcome is one evaluation's result, or the panic it raised.
type memoOutcome struct {
	pow    float64
	resp   []float64
	ok     bool
	panics any
}

// outcome runs eval and records what it returned or the panic it raised.
func outcome(eval func() (float64, []float64, bool)) (o memoOutcome) {
	defer func() { o.panics = recover() }()
	o.pow, o.resp, o.ok = eval()
	return o
}

// memoReference evaluates the tier as tierFn.eval does, without a memo.
func memoReference(m *cluster.TierModel, s float64) (pow float64, resp []float64, ok bool) {
	_, resp, tm, err := m.Eval(s)
	if err != nil {
		return 0, nil, false
	}
	for k, v := range m.Visits {
		if v > 0 && math.IsInf(resp[k], 1) {
			return 0, nil, false
		}
	}
	return tm.Power.Static + tm.Power.Dynamic, resp, true
}

// FuzzTierMemoMatchesEval: a memoised tier evaluation returns exactly what
// TierModel.Eval returns on an independent model of the same tier, bit for
// bit on the power and every response time, with the same ok, whatever
// sequence of speeds it is asked: repeats, the end checks its memo pins,
// more distinct speeds than its ring holds, NaN, ±0, ±Inf, and speeds
// outside the tier's range or below its stability floor. Eval returns an
// error, which the memo remembers as not ok, at a speed that is not
// positive and finite or so small that a service time overflows; on these
// valid clusters it panics nowhere, and wherever it did, the memoised
// evaluation would have to panic too, and so not remember the speed. kind
// picks the cluster and the tier. Each byte of seq below the palette's
// length picks a palette speed (memoPalette); any other byte takes the
// next eight bytes as a speed's bits.
func FuzzTierMemoMatchesEval(f *testing.F) {
	raw := func(s float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{255}, math.Float64bits(s))
	}
	for _, seed := range []struct {
		seq  []byte
		kind uint8
	}{
		{[]byte{0, 1, 2, 1, 0, 2, 14, 15, 16, 17, 1}, 0},
		{[]byte{3, 4, 3, 4, 5, 6, 7, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 3}, 2},
		{append(append(raw(3), raw(3.0000001)...), 1, 0, 2, 14, 17, 14), 1},
		{[]byte{14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 0, 1, 2, 3, 4, 5, 14, 26}, 3},
		{append(raw(math.Float64frombits(0x7ff0000000000001)), 8, 9, 8), 5},
	} {
		f.Add(seed.seq, seed.kind)
	}
	clusters := memoClusters(f)
	f.Fuzz(func(t *testing.T, seq []byte, kind uint8) {
		c := clusters[int(kind/3)%len(clusters)]
		j := int(kind % 3)
		tf, err := newTierFns(c)
		if err != nil {
			t.Fatal(err)
		}
		ref := c.TierModels()[j]
		fn := &tf.tiers[j]
		palette := memoPalette(tf, j)
		for i, n := 0, 0; i < len(seq) && n < 512; n++ {
			var s float64
			if b := int(seq[i]); b < len(palette) {
				s = palette[b]
				i++
			} else if i+9 <= len(seq) {
				s = math.Float64frombits(binary.LittleEndian.Uint64(seq[i+1 : i+9]))
				i += 9
			} else {
				break
			}
			got := outcome(func() (float64, []float64, bool) { return fn.eval(s) })
			want := outcome(func() (float64, []float64, bool) { return memoReference(&ref, s) })
			if (got.panics != nil) != (want.panics != nil) || got.ok != want.ok ||
				math.Float64bits(got.pow) != math.Float64bits(want.pow) || len(got.resp) != len(want.resp) {
				t.Fatalf("step %d, speed %g (%#x): memo gives %+v, Eval %+v", n, s, math.Float64bits(s), got, want)
			}
			for k := range got.resp {
				if math.Float64bits(got.resp[k]) != math.Float64bits(want.resp[k]) {
					t.Fatalf("step %d, speed %g (%#x): class %d response %g, Eval %g",
						n, s, math.Float64bits(s), k, got.resp[k], want.resp[k])
				}
			}
		}
	})
}
