package repro_test

import (
	"go/ast"
	"os"
	"regexp"
	"strings"
	"testing"
)

// citedTest matches a test, fuzz target or benchmark name as the docs cite
// it; a trailing * stands for every name with that prefix.
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*\*?`)

// TestDocsCiteOnlyExistingTests fails when a document names a Test, Fuzz or
// Benchmark function that no _test.go file defines, so a claim that "a test
// enforces this" cannot outlive the test.
func TestDocsCiteOnlyExistingTests(t *testing.T) {
	defined := map[string]bool{}
	if err := walkTestFuncs(".", func(_ string, fn *ast.FuncDecl) { defined[fn.Name.Name] = true }); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "docs/API.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTest.FindAllString(string(text), -1) {
			if !resolves(name, defined) {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// resolves reports whether a cited name is a defined function or, ending
// in *, the prefix of one.
func resolves(name string, defined map[string]bool) bool {
	prefix, wildcard := strings.CutSuffix(name, "*")
	if !wildcard {
		return defined[name]
	}
	for fn := range defined {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}
