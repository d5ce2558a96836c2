package lint_test

import (
	"testing"

	"clusterq/internal/lint"
	"clusterq/internal/lint/linttest"
)

const fixtures = "testdata/src"

func TestSimDeterm(t *testing.T) {
	linttest.Run(t, fixtures, lint.SimDeterm,
		"simdeterm/internal/sim",
		"simdeterm/internal/sim/multi",
		"simdeterm/internal/control",
		"simdeterm/other", // out of scope: the wall-clock read there must pass
	)
}

func TestFloatEq(t *testing.T) {
	linttest.Run(t, fixtures, lint.FloatEq, "floateq/pkg")
}

func TestNilNoop(t *testing.T) {
	linttest.Run(t, fixtures, lint.NilNoop,
		"nilnoop/internal/obs",
		"nilnoop/internal/obs/trace",
		"nilnoop/docpkg",
	)
}

func TestErrSink(t *testing.T) {
	linttest.Run(t, fixtures, lint.ErrSink, "errsink/pkg")
}

func TestCtorValidate(t *testing.T) {
	linttest.Run(t, fixtures, lint.CtorValidate, "ctorvalidate/internal/queueing")
}

func TestMapIter(t *testing.T) {
	linttest.Run(t, fixtures, lint.MapIter,
		"mapiter/internal/sim",
		"mapiter/pkg", // out of scope: the float accumulation there must pass
	)
}

func TestRNGStream(t *testing.T) {
	linttest.Run(t, fixtures, lint.RNGStream,
		"rngstream/internal/sim",
		"rngstream/internal/control",
	)
}

// hotallocTranscript is a canned `go build -gcflags=-m=2` output for the
// hotalloc fixture: an allowlisted escape (doubled the way -m=2 doubles its
// reporting), an unlisted one, and an escape in a non-hot-path file that
// must be ignored.
const hotallocTranscript = `# sim
./engine.go:6:9: &calendar{} escapes to heap:
./engine.go:6:9:   flow: ~r0 = &{storage for &calendar{}}:
./engine.go:6:9: &calendar{} escapes to heap
./engine.go:12:9: &tracker{} escapes to heap
./helper.go:9:9: &ignored{} escapes to heap
./deque.go:10:10: make([]int, c) escapes to heap
./deque.go:16:9: &cursor{} escapes to heap
`

// hotallocAllow admits the calendar escape and the deque's growable backing
// array, and carries one stale entry the transcript no longer reports.
const hotallocAllow = `
engine.go: &calendar{} escapes to heap
engine.go: &ghost{} escapes to heap
deque.go: make([]int, c) escapes to heap
`

func TestHotAlloc(t *testing.T) {
	restore := lint.SetHotAllocForTest([]byte(hotallocTranscript), hotallocAllow)
	defer restore()
	facts := linttest.Run(t, fixtures, lint.HotAlloc, "hotalloc/internal/sim")

	const pkg = "hotalloc/internal/sim"
	for _, fn := range []string{"newCalendar", "leak", "deque.grow", "newCursor"} {
		if _, ok := facts.Get(pkg, fn, "hotpath"); !ok {
			t.Errorf("missing hotpath fact for %s", fn)
		}
	}
	if _, ok := facts.Get(pkg, "makeIgnored", "hotpath"); ok {
		t.Error("helper.go is not a hot-path file; makeIgnored must not carry a hotpath fact")
	}
	for _, fn := range []string{"newCalendar", "leak", "deque.grow", "newCursor"} {
		if _, ok := facts.Get(pkg, fn, "allocates"); !ok {
			t.Errorf("missing allocates fact for %s (allowlisted or not, the escape is a fact)", fn)
		}
	}
	if _, ok := facts.Get(pkg, "makeIgnored", "allocates"); ok {
		t.Error("off-hot-path escape must not export an allocates fact")
	}
}

func TestSyncGuard(t *testing.T) {
	// The obs package must be analyzed first: the experiments fixture relies
	// on its exported atomicfield fact crossing the package boundary.
	facts := linttest.Run(t, fixtures, lint.SyncGuard,
		"syncguard/internal/obs",
		"syncguard/internal/experiments",
	)
	if _, ok := facts.Get("syncguard/internal/obs", "Counter.N", "atomicfield"); !ok {
		t.Error("missing atomicfield fact for Counter.N")
	}
	if _, ok := facts.Get("syncguard/internal/obs", "Guarded", "containslock"); !ok {
		t.Error("missing containslock fact for Guarded")
	}
	if _, ok := facts.Get("syncguard/internal/obs", "Counter", "containslock"); ok {
		t.Error("Counter holds no lock; it must not carry a containslock fact")
	}
}

func TestWaiverHygiene(t *testing.T) {
	linttest.RunWaiverCheck(t, fixtures, "waive/pkg")
}
