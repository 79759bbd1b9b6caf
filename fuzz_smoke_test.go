package repro_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryTarget keeps scripts/fuzz_smoke.sh's target list
// equal to the module's native fuzz targets: `make fuzz-smoke` runs only
// the listed ones, so a new Fuzz function left off the list would never be
// fuzzed, and a listed one that no longer exists would pass without
// running.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	defined, err := fuzzTargets(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}
	script, err := os.ReadFile("scripts/fuzz_smoke.sh")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := fuzzSmokeTargets(string(script))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range defined {
		if !slices.Contains(listed, target) {
			t.Errorf("fuzz target %q is missing from scripts/fuzz_smoke.sh's TARGETS", target)
		}
	}
	for _, target := range listed {
		if !slices.Contains(defined, target) {
			t.Errorf("scripts/fuzz_smoke.sh lists %q, which no _test.go file defines", target)
		}
	}
}

// fuzzTargets returns, sorted, every native fuzz target of the module
// rooted at root as "FuzzName ./pkg/dir", the line format of the script's
// target list.
func fuzzTargets(root string) ([]string, error) {
	var targets []string
	err := walkTestFuncs(root, func(p string, fn *ast.FuncDecl) {
		if strings.HasPrefix(fn.Name.Name, "Fuzz") {
			targets = append(targets, fn.Name.Name+" ./"+filepath.ToSlash(filepath.Dir(p)))
		}
	})
	slices.Sort(targets)
	return targets, err
}

// walkTestFuncs calls visit with each top-level function (no receiver) of
// every _test.go file in the module rooted at root. It skips
// dot-directories, testdata/ and nested modules.
func walkTestFuncs(root string, visit func(path string, fn *ast.FuncDecl)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				visit(p, fn)
			}
		}
		return nil
	})
}

// fuzzSmokeTargets returns the "FuzzName ./pkg/dir" lines of the script's
// single-quoted TARGETS list.
func fuzzSmokeTargets(script string) ([]string, error) {
	_, rest, ok := strings.Cut(script, "\nTARGETS='")
	list, _, closed := strings.Cut(rest, "'")
	if !ok || !closed {
		return nil, errors.New("no TARGETS='...' list in the script")
	}
	var targets []string
	for _, line := range strings.Split(list, "\n") {
		if line = strings.Join(strings.Fields(line), " "); line != "" {
			targets = append(targets, line)
		}
	}
	return targets, nil
}
