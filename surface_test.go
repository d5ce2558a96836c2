package clusterq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedCeiling is the number of exported identifiers each library package
// of the module may have, counted by exportedCount. Deleting API lowers a
// count and the test then asks for the lower figure, so the surface only
// shrinks unless a change raises a ceiling on purpose.
var exportedCeiling = map[string]int{
	".":                      89,
	"internal/cluster":       126,
	"internal/control":       20,
	"internal/core":          38,
	"internal/experiments":   26,
	"internal/lint":          82,
	"internal/lint/linttest": 3,
	"internal/obs":           33,
	"internal/obs/trace":     64,
	"internal/obs/window":    25,
	"internal/opt":           20,
	"internal/power":         33,
	"internal/queueing":      129,
	"internal/sim":           123,
	"internal/sim/multi":     22,
	"internal/stats":         37,
	"internal/workload":      9,
}

// exportedCount counts the exported identifiers a package's non-test files
// declare: top-level functions, types, variables and constants, plus the
// exported methods and struct fields of exported types. Interface methods
// are not counted. It reports false for a main package and for a directory
// without one.
func exportedCount(t *testing.T, dir string) (n int, lib bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "main" {
			return 0, false
		}
		lib = true
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvType(d.Recv))) {
					n++
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						n++
						if st, ok := s.Type.(*ast.StructType); ok {
							n += exportedFields(st)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								n++
							}
						}
					}
				}
			}
		}
	}
	return n, lib
}

// recvType returns the name of a method receiver's base type.
func recvType(recv *ast.FieldList) string {
	x := recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch v := x.(type) {
	case *ast.IndexExpr:
		x = v.X
	case *ast.IndexListExpr:
		x = v.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// exportedFields counts a struct's exported fields, an embedded field under
// the name of its type.
func exportedFields(st *ast.StructType) int {
	n := 0
	for _, fld := range st.Fields.List {
		if len(fld.Names) == 0 {
			x := fld.Type
			if star, ok := x.(*ast.StarExpr); ok {
				x = star.X
			}
			if sel, ok := x.(*ast.SelectorExpr); ok {
				x = sel.Sel
			}
			if id, ok := x.(*ast.Ident); ok && id.IsExported() {
				n++
			}
			continue
		}
		for _, id := range fld.Names {
			if id.IsExported() {
				n++
			}
		}
	}
	return n
}

// TestExportedSurfaceCeiling holds every library package of the module to its
// exported-identifier count in exportedCeiling: a package above its ceiling
// grew its API, one below it should record the smaller figure, and a package
// missing from the table needs an entry.
func TestExportedSurfaceCeiling(t *testing.T) {
	got := make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." {
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") {
				return filepath.SkipDir
			}
			// A nested module (the benchmark) is not part of this one.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if n, ok := exportedCount(t, path); ok {
			got[filepath.ToSlash(path)] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(got))
	for dir := range got {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		n := got[dir]
		ceiling, ok := exportedCeiling[dir]
		switch {
		case !ok:
			t.Errorf("%s: %d exported identifiers and no ceiling; add it to exportedCeiling", dir, n)
		case n > ceiling:
			t.Errorf("%s: %d exported identifiers, ceiling %d", dir, n, ceiling)
		case n < ceiling:
			t.Errorf("%s: %d exported identifiers, below its ceiling %d; lower the ceiling to %d", dir, n, ceiling, n)
		}
	}
	for dir := range exportedCeiling {
		if _, ok := got[dir]; !ok {
			t.Errorf("%s: in exportedCeiling but no such library package", dir)
		}
	}
}
