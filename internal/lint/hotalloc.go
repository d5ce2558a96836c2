package lint

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotAlloc is the compile-time twin of the runtime AllocsPerRun gate
// (TestSteadyStateAllocationsBounded): it runs the compiler's escape
// analysis (`go build -gcflags=-m=2`) over internal/sim and fails on any
// heap escape in the pooled hot path — engine.go, pool.go, deque.go,
// station.go, arrivals.go — that is not recorded in the checked-in
// allowlist (hotalloc_allow.txt). The allowlist is exact in both
// directions: a new escape fails lint until it is either eliminated or
// deliberately admitted, and a stale entry (an escape the compiler no
// longer reports) fails lint until it is removed, so the list always equals
// the real allocation profile of the hot path.
//
// Entries are line-number free ("engine.go: &event{} escapes to heap"), so
// unrelated edits that shift lines do not churn the list. The analyzer also
// exports two fact families for downstream consumers: "hotpath" on every
// function declared in a hot-path file, and "allocates" on every hot-path
// function the compiler reports a heap escape in.
//
// The escape output is served from the go build cache: after the first
// compile the go command replays the stored compiler diagnostics, so a warm
// lint run costs milliseconds (CI shares the build cache between the lint
// and bench jobs for the same reason).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "no unlisted heap escape in the pooled simulator hot path " +
		"(go build -gcflags=-m=2 vs the checked-in allowlist)",
	Scope: []string{"internal/sim"},
	Run:   runHotAlloc,
}

// hotPathFiles are the allocation-free-by-design files of the event loop.
var hotPathFiles = map[string]bool{
	"engine.go": true, "pool.go": true, "deque.go": true,
	"station.go": true, "arrivals.go": true,
}

//go:embed hotalloc_allow.txt
var hotAllocAllowRaw string

// escapeOutput obtains the escape-analysis diagnostics for the package in
// dir. Tests swap it for a canned transcript via SetHotAllocForTest.
var escapeOutput = func(dir string) ([]byte, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m=2", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("hotalloc: go build -gcflags=-m=2 in %s: %v\n%s", dir, err, out)
	}
	return out, nil
}

// hotAllocAllowlist returns the active allowlist entries; tests may override
// the raw text.
var hotAllocAllowOverride *string

func hotAllocAllowlist() map[string]bool {
	raw := hotAllocAllowRaw
	if hotAllocAllowOverride != nil {
		raw = *hotAllocAllowOverride
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		allow[line] = true
	}
	return allow
}

// SetHotAllocForTest replaces the escape-analysis source and allowlist for
// the duration of a test; the returned func restores the real ones.
func SetHotAllocForTest(output []byte, allowlist string) (restore func()) {
	prevOut := escapeOutput
	escapeOutput = func(string) ([]byte, error) { return output, nil }
	hotAllocAllowOverride = &allowlist
	return func() {
		escapeOutput = prevOut
		hotAllocAllowOverride = nil
	}
}

// escapeLineRe matches one compiler escape diagnostic:
//
//	internal/sim/engine.go:121:9: &event{} escapes to heap:
//	internal/sim/arrivals.go:64:4: moved to heap: low
//
// The trailing colon of -m=2's "explained" form is normalized away, as are
// line and column.
var escapeLineRe = regexp.MustCompile(`^(\S+\.go):(\d+):(\d+): (.*?(?:escapes to heap|moved to heap.*?)):?$`)

// escape is one normalized heap-escape site.
type escape struct {
	file      string // basename
	line, col int
	entry     string // "file.go: message" allowlist form
}

// parseEscapes extracts the hot-path heap escapes from raw -m=2 output,
// deduplicating the compiler's doubled reporting (-m=2 prints each site once
// with its flow explanation and once in plain -m form).
func parseEscapes(out []byte) []escape {
	var escapes []escape
	dedup := map[escape]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		base := filepath.Base(m[1])
		if !hotPathFiles[base] {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		e := escape{file: base, line: ln, col: col, entry: base + ": " + m[4]}
		if dedup[e] {
			continue
		}
		dedup[e] = true
		escapes = append(escapes, e)
	}
	sort.Slice(escapes, func(i, j int) bool {
		if escapes[i].file != escapes[j].file {
			return escapes[i].file < escapes[j].file
		}
		if escapes[i].line != escapes[j].line {
			return escapes[i].line < escapes[j].line
		}
		return escapes[i].col < escapes[j].col
	})
	return escapes
}

func runHotAlloc(pass *Pass) error {
	// Index the package's files by basename, for positioning findings and
	// for fact export.
	fileByBase := map[string]*ast.File{}
	hasHotFile := false
	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		fileByBase[base] = f
		if hotPathFiles[base] {
			hasHotFile = true
		}
	}
	// A sim package without the hot-path files (a fixture module, say) has no
	// hot path to gate: skip the compile and the staleness audit entirely.
	if !hasHotFile {
		return nil
	}
	// Export "hotpath" facts for every function declared in a hot file.
	for base, f := range fileByBase {
		if !hotPathFiles[base] {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				pass.Facts.Export(pass.Path, funcObjectName(fd), "hotpath", base)
			}
		}
	}

	out, err := escapeOutput(pass.Dir)
	if err != nil {
		return err
	}
	escapes := parseEscapes(out)
	allow := hotAllocAllowlist()

	seen := map[string]bool{}
	for _, e := range escapes {
		seen[e.entry] = true
		f := fileByBase[e.file]
		pos := token.Position{Filename: e.file, Line: e.line, Column: e.col}
		if f != nil {
			pos.Filename = pass.Fset.Position(f.Pos()).Filename
		}
		// Export the allocation fact on the enclosing function, listed or
		// not: the profile is a fact, the allowlist is a policy.
		if f != nil {
			if fn := enclosingFunc(pass, f, pos.Line); fn != "" {
				pass.Facts.Export(pass.Path, fn, "allocates", e.entry)
			}
		}
		if allow[e.entry] {
			continue
		}
		pass.ReportAt(pos,
			"new heap escape on the pooled hot path: %s — eliminate it (the "+
				"event loop is allocation-free by design, see pool.go) or admit "+
				"it in internal/lint/hotalloc_allow.txt", e.entry)
	}
	// Stale entries: the compiler no longer reports them, so the allowlist
	// overstates the allocation profile. Keep the two in lockstep.
	var stale []string
	for entry := range allow {
		if !seen[entry] {
			stale = append(stale, entry)
		}
	}
	sort.Strings(stale)
	for _, entry := range stale {
		base, _, _ := strings.Cut(entry, ":")
		pos := token.Position{Filename: base, Line: 1, Column: 1}
		if f := fileByBase[base]; f != nil {
			pos.Filename = pass.Fset.Position(f.Pos()).Filename
		}
		pass.ReportAt(pos,
			"stale hotalloc allowlist entry %q: the compiler no longer "+
				"reports this escape — remove it from hotalloc_allow.txt", entry)
	}
	return nil
}

// funcObjectName renders a FuncDecl as a fact object name: "F" for
// functions, "T.M" for methods.
func funcObjectName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// enclosingFunc names the function declaration spanning the given line of
// the file, or "" when the line is at file scope.
func enclosingFunc(pass *Pass, f *ast.File, line int) string {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		start := pass.Fset.Position(fd.Pos()).Line
		end := pass.Fset.Position(fd.End()).Line
		if line >= start && line <= end {
			return funcObjectName(fd)
		}
	}
	return ""
}
