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
// tier j: its end checks, three close speeds inside its range, speeds below
// its stability floor and above its range, and the values whose bits differ
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
	pow          float64
	resp, d1, d2 []float64
	ok           bool
	panics       any
}

// outcome runs eval and records what it returned or the panic it raised.
func outcome(eval func() memoOutcome) (o memoOutcome) {
	defer func() { o.panics = recover() }()
	return eval()
}

// memoReference evaluates the tier as tierFn.at does, without a memo, with
// the derivatives when slopes is set.
func memoReference(m *cluster.TierModel, s float64, slopes bool) (o memoOutcome) {
	if slopes {
		o.d1, o.d2 = make([]float64, len(m.Visits)+1), make([]float64, len(m.Visits)+1)
	}
	_, resp, tm, err := m.Eval(s, o.d1, o.d2)
	if err != nil {
		return memoOutcome{}
	}
	for k, v := range m.Visits {
		if v > 0 && math.IsInf(resp[k], 1) {
			return memoOutcome{}
		}
	}
	o.pow, o.resp, o.ok = tm.Power.Static+tm.Power.Dynamic, resp, true
	return o
}

// memoAt reads tierFn.at's entry as memoReference reports: the derivatives
// only when slopes is set, nothing but ok where ok is false.
func memoAt(f *tierFn, s float64, slopes bool) memoOutcome {
	e := f.at(s, slopes)
	if !e.ok {
		return memoOutcome{}
	}
	o := memoOutcome{pow: e.pow, resp: e.resp, ok: true}
	if slopes {
		o.d1, o.d2 = e.d1, e.d2
	}
	return o
}

// FuzzTierMemoMatchesEval: a memoised tier evaluation returns exactly what
// TierModel.Eval returns on an independent model of the same tier, bit for
// bit on the power, every response time and, where they are asked for,
// every derivative, with the same ok, whatever sequence of speeds it is
// asked: repeats, with and without derivatives, the end checks its memo
// pins, more distinct speeds than its ring holds, NaN, ±0, ±Inf, and speeds
// outside the tier's range or below its stability floor. Eval returns an
// error, which the memo remembers as not ok, at a speed that is not
// positive and finite or so small that a service time overflows; on these
// valid clusters it panics nowhere, and wherever it did, the memoised
// evaluation would have to panic too, and so not remember the speed. kind
// picks the cluster and the tier. Each byte of seq below the palette's
// length picks a palette speed (memoPalette), and a byte 128 above it the
// same speed with derivatives; a byte of 254 takes the next eight bytes as a
// speed's bits, with derivatives, and any other byte does so without.
func FuzzTierMemoMatchesEval(f *testing.F) {
	raw := func(s float64, slopes bool) []byte {
		b := byte(255)
		if slopes {
			b = 254
		}
		return binary.LittleEndian.AppendUint64([]byte{b}, math.Float64bits(s))
	}
	for _, seed := range []struct {
		seq  []byte
		kind uint8
	}{
		{[]byte{0, 1, 2, 1, 0, 2, 14, 15, 16, 17, 1}, 0},
		{[]byte{3, 4, 3, 4, 5, 6, 7, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 3}, 2},
		{append(append(raw(3, false), raw(3.0000001, true)...), 1, 0, 2, 14, 17, 14), 1},
		{[]byte{14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 0, 1, 2, 3, 4, 5, 14, 26}, 3},
		{append(raw(math.Float64frombits(0x7ff0000000000001), false), 8, 9, 8), 5},
		{[]byte{1, 129, 1, 128, 0, 130, 2, 142, 14, 131, 3, 136, 8, 138, 10}, 0},
		{append(append(raw(2.7, true), raw(2.7, false)...), 129, 1, 16, 144, 15, 143), 4},
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
			b := int(seq[i])
			slopes := b >= 128 && b < 128+len(palette) || b == 254
			switch {
			case b < len(palette):
				s = palette[b]
				i++
			case slopes && b != 254:
				s = palette[b-128]
				i++
			case i+9 <= len(seq):
				s = math.Float64frombits(binary.LittleEndian.Uint64(seq[i+1 : i+9]))
				i += 9
			default:
				i = len(seq)
				continue
			}
			got := outcome(func() memoOutcome { return memoAt(fn, s, slopes) })
			want := outcome(func() memoOutcome { return memoReference(&ref, s, slopes) })
			if (got.panics != nil) != (want.panics != nil) || got.ok != want.ok ||
				math.Float64bits(got.pow) != math.Float64bits(want.pow) || len(got.resp) != len(want.resp) ||
				len(got.d1) != len(want.d1) || len(got.d2) != len(want.d2) {
				t.Fatalf("step %d, speed %g (%#x), derivatives %t: memo gives %+v, Eval %+v",
					n, s, math.Float64bits(s), slopes, got, want)
			}
			for _, q := range []struct {
				name      string
				got, want []float64
			}{{"response", got.resp, want.resp}, {"∂/∂s", got.d1, want.d1}, {"∂²/∂s²", got.d2, want.d2}} {
				for k := range q.got {
					if math.Float64bits(q.got[k]) != math.Float64bits(q.want[k]) {
						t.Fatalf("step %d, speed %g (%#x): %s %d is %g, Eval's %g",
							n, s, math.Float64bits(s), q.name, k, q.got[k], q.want[k])
					}
				}
			}
		}
	})
}
