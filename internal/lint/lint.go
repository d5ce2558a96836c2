// Package lint is clusterq's in-tree static-analysis suite: nine analyzers
// that enforce the repository invariants no compiler checks — simulator
// determinism, NaN-safe numerics, the observability layer's nil-means-no-op
// contract, unchecked writer errors, constructor input validation, map-order
// dataflow into results (mapiter), the RNG-stream discipline (rngstream),
// the pooled hot path's allocation budget (hotalloc), and mutex/atomic/
// WaitGroup misuse (syncguard).
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic, facts) so the analyzers could migrate to the upstream
// framework verbatim, but the implementation is standard-library only:
// packages are parsed with go/parser and type-checked with go/types,
// resolving standard library imports from GOROOT source and module-local
// imports from the repository tree. See Loader.
//
// # Waivers
//
// Any diagnostic can be waived by a comment of the form
//
//	//lint:waive <analyzer>[,<analyzer>...] reason="why this is safe" until=2026-12-01
//
// on the flagged line or on the line directly above it. Both attributes are
// mandatory: a waiver must say why the finding is a false positive (or a
// deliberate exception) and when it should be re-examined. The until date is
// an exclusive expiry — the waiver stops suppressing at 00:00 UTC of that
// day, and from then on the expired waiver itself is reported as a finding,
// so stale exceptions fail the build instead of rotting silently. Malformed
// waivers (missing reason, missing or unparseable until, unknown analyzer
// name) and pre-expiry-era legacy waivers (//lint:<analyzer> <reason>) are
// reported too; see CheckWaivers.
//
// # Facts
//
// Analyzers can export facts about package-level objects ("function
// allocates", "field is accessed atomically") into a FactStore shared across
// the whole run. The driver analyzes packages in dependency order, so a
// pass over a package sees every fact its imports exported — the mechanism
// syncguard uses to follow atomic fields across package boundaries and
// hotalloc uses to publish the hot-path allocation profile.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and waiver comments.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Scope restricts the analyzer to packages whose import path ends in
	// one of these suffixes (e.g. "internal/sim"). Empty means every
	// package.
	Scope []string
	// Run reports diagnostics for one package through pass.Reportf.
	Run func(pass *Pass) error
}

// AppliesTo reports whether the analyzer runs on the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A FactStore carries exported object facts across packages within one
// analysis run. Facts are keyed by (package path, object, fact name), where
// object is a package-level name ("NewRNG"), a method ("Registry.Counter"),
// or a struct field ("Counter.v"). The driver hands the same store to
// every pass, analyzing packages in dependency order so importers observe
// the facts of their imports.
type FactStore struct {
	facts map[factKey]string
}

type factKey struct {
	pkg, object, name string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: make(map[factKey]string)}
}

// Export records (or overwrites) one fact. A nil store ignores the export,
// so analyzers need no "is a store attached" branches.
func (s *FactStore) Export(pkgPath, object, name, value string) {
	if s == nil {
		return
	}
	s.facts[factKey{pkgPath, object, name}] = value
}

// Get looks one fact up. A nil store has no facts.
func (s *FactStore) Get(pkgPath, object, name string) (string, bool) {
	if s == nil {
		return "", false
	}
	v, ok := s.facts[factKey{pkgPath, object, name}]
	return v, ok
}

// A Fact is one exported (pkg, object, name, value) tuple, for enumeration.
type Fact struct {
	Pkg, Object, Name, Value string
}

// All returns every exported fact with the given name, sorted by package
// then object — the deterministic view the fact-export tests assert on.
func (s *FactStore) All(name string) []Fact {
	if s == nil {
		return nil
	}
	var out []Fact
	for k, v := range s.facts {
		if k.name == name {
			out = append(out, Fact{Pkg: k.pkg, Object: k.object, Name: k.name, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Object < out[j].Object
	})
	return out
}

// A Pass carries one analyzer run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path of the analyzed package
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Dir is the directory the package's files were loaded from (needed by
	// analyzers that consult the toolchain, like hotalloc).
	Dir string
	// Now anchors waiver-expiry decisions; the driver sets it once per run
	// so a single invocation cannot straddle midnight.
	Now time.Time
	// Facts is the run-wide fact store (may be nil for isolated runs).
	Facts *FactStore

	waivers map[string]map[int]bool // filename -> line -> waived for this analyzer
	diags   []Diagnostic
}

// A Waiver is one parsed //lint:waive comment.
type Waiver struct {
	Pos       token.Position
	Analyzers []string
	Reason    string
	Until     time.Time // exclusive expiry day, UTC
	// Err describes why the waiver is malformed ("" when well-formed).
	Err string
	// Legacy marks a pre-expiry-era //lint:<analyzer> comment.
	Legacy bool
}

// Expired reports whether the waiver no longer suppresses at the given time:
// the until day is an exclusive bound, so a waiver with until=2026-12-01 is
// dead on 2026-12-01 itself (the "expired today" boundary).
func (w *Waiver) Expired(now time.Time) bool {
	if w.Err != "" || w.Legacy {
		return false // malformed waivers are reported separately
	}
	day := time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, time.UTC)
	return !day.Before(w.Until)
}

// waiverRe matches the comment head of the current waiver syntax.
var waiverRe = regexp.MustCompile(`^//lint:waive\s+([a-zA-Z0-9_,]+)\s*(.*)$`)

// legacyWaiverRe matches the pre-expiry syntax //lint:<name> <reason>, kept
// only to report its use; it no longer suppresses anything.
var legacyWaiverRe = regexp.MustCompile(`^//lint:([a-z0-9_,]+)(\s|$)`)

// waiverAttrRe matches one key=value attribute; reasons are double-quoted Go
// strings so they can contain spaces.
var waiverAttrRe = regexp.MustCompile(`(reason|until)=("(?:[^"\\]|\\.)*"|\S*)`)

// ParseWaiver parses one comment as a waiver. The second return is false
// when the comment is not waiver-shaped at all (ordinary prose).
func ParseWaiver(text string, pos token.Position) (Waiver, bool) {
	w := Waiver{Pos: pos}
	if m := waiverRe.FindStringSubmatch(text); m != nil {
		w.Analyzers = strings.Split(m[1], ",")
		attrs := map[string]string{}
		rest := m[2]
		for _, am := range waiverAttrRe.FindAllStringSubmatch(rest, -1) {
			attrs[am[1]] = am[2]
		}
		reason, ok := attrs["reason"]
		switch {
		case !ok:
			w.Err = `missing reason="..."`
		case !strings.HasPrefix(reason, `"`):
			w.Err = `reason must be a quoted string: reason="..."`
		case len(reason) <= 2:
			w.Err = "empty reason"
		default:
			w.Reason = reason[1 : len(reason)-1]
		}
		until, ok := attrs["until"]
		switch {
		case !ok:
			if w.Err == "" {
				w.Err = "missing until=YYYY-MM-DD"
			}
		default:
			t, err := time.ParseInLocation("2006-01-02", until, time.UTC)
			if err != nil {
				if w.Err == "" {
					w.Err = fmt.Sprintf("unparseable until date %q (want YYYY-MM-DD)", until)
				}
			} else {
				w.Until = t
			}
		}
		return w, true
	}
	if m := legacyWaiverRe.FindStringSubmatch(text); m != nil {
		w.Analyzers = strings.Split(m[1], ",")
		w.Legacy = true
		return w, true
	}
	return Waiver{}, false
}

// Waivers parses every waiver-shaped comment of the package, well-formed or
// not, in position order.
func Waivers(pkg *Package) []Waiver {
	var out []Waiver
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if w, ok := ParseWaiver(c.Text, pkg.Fset.Position(c.Pos())); ok {
					out = append(out, w)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// CheckWaivers reports the waiver hygiene findings of one package: legacy
// syntax, malformed attributes, unknown analyzer names, and expired waivers.
// These diagnostics carry the pseudo-analyzer name "waive" and cannot
// themselves be waived — an expired or broken waiver must be fixed, not
// suppressed.
func CheckWaivers(pkg *Package, now time.Time, known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: "waive",
		})
	}
	for _, w := range Waivers(pkg) {
		switch {
		case w.Legacy:
			report(w.Pos,
				"legacy waiver syntax //lint:%s: use //lint:waive %s reason=\"...\" until=YYYY-MM-DD",
				strings.Join(w.Analyzers, ","), strings.Join(w.Analyzers, ","))
			continue
		case w.Err != "":
			report(w.Pos, "malformed waiver: %s", w.Err)
			continue
		}
		for _, name := range w.Analyzers {
			if !known[name] {
				report(w.Pos, "waiver names unknown analyzer %q", name)
			}
		}
		if w.Expired(now) {
			report(w.Pos, "waiver expired on %s (reason was: %s): fix the finding or re-justify with a new until date",
				w.Until.Format("2006-01-02"), w.Reason)
		}
	}
	return diags
}

// buildWaivers indexes the well-formed, unexpired //lint:waive comments of
// every file: a waiver suppresses diagnostics of the named analyzers on its
// own line and on the line below (the "comment above the statement" style).
func (p *Pass) buildWaivers() {
	p.waivers = make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				w, ok := ParseWaiver(c.Text, p.Fset.Position(c.Pos()))
				if !ok || w.Legacy || w.Err != "" || w.Expired(p.Now) {
					continue
				}
				covered := false
				for _, n := range w.Analyzers {
					if n == p.Analyzer.Name {
						covered = true
					}
				}
				if !covered {
					continue
				}
				lines := p.waivers[w.Pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					p.waivers[w.Pos.Filename] = lines
				}
				lines[w.Pos.Line] = true
				lines[w.Pos.Line+1] = true
			}
		}
	}
}

// waived reports whether a diagnostic at pos is suppressed by a waiver.
func (p *Pass) waived(pos token.Position) bool {
	return p.waivers[pos.Filename][pos.Line]
}

// Reportf records one diagnostic unless a //lint:waive comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportAt records a diagnostic at an explicit source position — the entry
// point for analyzers whose findings come from outside the AST (hotalloc
// positions come from compiler output). Waivers apply exactly as for
// Reportf.
func (p *Pass) ReportAt(position token.Position, format string, args ...any) {
	if p.waived(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Run executes the analyzer over a loaded package with the wall clock as the
// waiver-expiry anchor and no shared fact store. Findings come back sorted
// by source position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return RunAt(a, pkg, time.Now(), nil)
}

// RunAt is Run with an explicit expiry anchor and fact store — what the
// driver and the fixture harness call so waiver expiry is testable and facts
// flow between packages.
func RunAt(a *Analyzer, pkg *Package, now time.Time, facts *FactStore) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Path:     pkg.Path,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Dir:      pkg.Dir,
		Now:      now,
		Facts:    facts,
	}
	pass.buildWaivers()
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sortDiagnostics(pass.diags)
	return pass.diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterm,
		FloatEq,
		NilNoop,
		ErrSink,
		CtorValidate,
		MapIter,
		RNGStream,
		HotAlloc,
		SyncGuard,
	}
}

// KnownAnalyzers returns the waiver-name universe: every analyzer in All.
func KnownAnalyzers() map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}
