package repro_test

// The exported-surface check: every exported identifier under internal/
// must have a caller in some non-test file of the module (perfbench/,
// cmd/, examples/, scripts/ and the root facade included). An export that
// only tests call is API that nothing ships; delete it, or move it into
// the package's _test.go files.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names exports kept without a non-test caller in the
// module, each with its reason. A key is an import path (the whole
// package), "path.Name" (a package-level name) or "path.Type.Method".
var exportAllowlist = map[string]string{
	// The dense state-vector oracle: tests compare DD results against it.
	"repro/internal/dense": "reference implementation for tests",

	// Public through repro.Session and documented in docs/ARCHITECTURE.md
	// as the stepping API; the library's own callers only Step and Finish.
	"repro/internal/sim.Session.Pos":     "repro.Session stepping API",
	"repro/internal/sim.Session.StepN":   "repro.Session stepping API",
	"repro/internal/sim.Session.Seek":    "repro.Session stepping API",
	"repro/internal/sim.Session.Abort":   "repro.Session stepping API",
	"repro/internal/sim.Session.State":   "repro.Session stepping API",
	"repro/internal/sim.Session.Density": "repro.Session stepping API",
	"repro/internal/sim.Session.Err":     "repro.Session stepping API",

	// Public through repro.DensityState, whose documented reads are purity,
	// fidelity, probability and sampling; the backend itself only samples.
	"repro/internal/density.State.Probability": "repro.DensityState probability read",

	// Called by the standard library through an interface, not by name.
	"repro/internal/serve.ResultPayload.UnmarshalJSON": "encoding/json calls it as a json.Unmarshaler",
}

func TestNoTestOnlyExports(t *testing.T) {
	unused, err := unusedExports(".", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		t.Errorf("exported %s has no caller outside _test.go files: delete it, move it into a _test.go file, or allowlist it with a reason", name)
	}
}

func TestUnusedExportsFixture(t *testing.T) {
	unused, err := unusedExports("testdata/exports", map[string]string{
		"fixture/internal/lib.Allowed": "kept on purpose",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.OnlyTests"}
	if !slices.Equal(unused, want) {
		t.Errorf("unusedExports(fixture) = %q, want %q", unused, want)
	}
}

// unusedExports parses every non-test .go file of the module rooted at
// root (skipping dot-directories and testdata/) and returns, sorted, the
// exported identifiers declared under internal/ that no non-test file
// references and the allowlist does not name. A package-level name is
// referenced by a qualified selector resolved through the file's imports,
// or by any identifier of that name in its own package. A method counts
// as referenced when any selector in any file names it: conservative, as
// it cannot tell two types' methods of one name apart.
func unusedExports(root string, allow map[string]string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	type decl struct{ pkg, recv, name string }
	var decls []decl
	used := map[string]bool{}     // "path.Name" of referenced package-level names
	selected := map[string]bool{} // every selector name, for methods
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(rel))
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			local := path.Base(ip)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = ip
		}
		internal := strings.HasPrefix(pkg+"/", module+"/internal/")
		declared := map[*ast.Ident]bool{}
		if internal {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared[d.Name] = true
					if d.Name.IsExported() {
						decls = append(decls, decl{pkg, recvType(d), d.Name.Name})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declared[s.Name] = true
							if s.Name.IsExported() {
								decls = append(decls, decl{pkg, "", s.Name.Name})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declared[n] = true
								if n.IsExported() {
									decls = append(decls, decl{pkg, "", n.Name})
								}
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						used[ip+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var unused []string
	for _, d := range decls {
		key := d.pkg + "." + d.name
		if d.recv != "" {
			key = d.pkg + "." + d.recv + "." + d.name
		}
		_, whole := allow[d.pkg]
		_, one := allow[key]
		if whole || one {
			continue
		}
		if d.recv != "" && selected[d.name] || d.recv == "" && used[key] {
			continue
		}
		unused = append(unused, strings.TrimPrefix(key, module+"/"))
	}
	slices.Sort(unused)
	return slices.Compact(unused), nil
}

// recvType returns the receiver's type name of a method, "" for a function.
func recvType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		default:
			panic(fmt.Sprintf("receiver of %s has type expression %T", d.Name.Name, x))
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
