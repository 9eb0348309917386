package pipebd

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// namedTestDocs are the documents whose test, benchmark and fuzz names a
// reader copies into `go test -run` or `-bench`.
var namedTestDocs = []string{"README.md", "doc.go", ".claude/skills/verify/SKILL.md"}

var (
	// docTestName matches an identifier that names a test function.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// testFuncDecl matches a top-level test function declaration.
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// docExample matches a path naming one example program.
	docExample = regexp.MustCompile(`\bexamples/\w+`)
)

// TestDocsNameExistingTests fails naming every Test…, Benchmark… or
// Fuzz… identifier of namedTestDocs that is not a prefix of a function
// declared in some _test.go file of the module: a deleted or renamed
// test must not leave a document pointing at it. A prefix is enough
// because the documents name families (TestTransformer…) as `-run`
// patterns do.
func TestDocsNameExistingTests(t *testing.T) {
	var declared []string
	for _, d := range testDecls(t) {
		declared = append(declared, d.name)
	}
	for _, doc := range namedTestDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docTestName.FindAllString(string(src), -1) {
			if !slices.ContainsFunc(declared, func(d string) bool { return strings.HasPrefix(d, name) }) {
				t.Errorf("%s names %s, which no _test.go declares", doc, name)
			}
		}
	}
}

// ciFuzzLine matches a CI command that fuzzes one target, capturing the
// target's name and its package directory.
var ciFuzzLine = regexp.MustCompile(`-fuzz '\^(Fuzz\w*)\$'.* (\./\S*)`)

// TestEveryFuzzTargetIsFuzzedInCI fails naming every Fuzz… function of
// the module that no `-fuzz '^Name$' … ./its/package/` command of the CI
// workflow runs: a target only its seed corpus exercises finds nothing
// new.
func TestEveryFuzzTargetIsFuzzedInCI(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	fuzzed := map[testDecl]bool{}
	for _, m := range ciFuzzLine.FindAllStringSubmatch(string(src), -1) {
		fuzzed[testDecl{m[1], filepath.Clean(m[2])}] = true
	}
	for _, d := range testDecls(t) {
		if strings.HasPrefix(d.name, "Fuzz") && !fuzzed[d] {
			t.Errorf("no -fuzz command of ci.yml fuzzes %s of ./%s", d.name, d.dir)
		}
	}
}

// testDecl is a test, benchmark or fuzz function and the directory of
// its package.
type testDecl struct{ name, dir string }

// testDecls lists every test, benchmark and fuzz function declared in a
// _test.go file of the module.
func testDecls(t *testing.T) []testDecl {
	t.Helper()
	var decls []testDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			decls = append(decls, testDecl{m[1], filepath.Dir(path)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// TestDocsNameExistingExamples fails naming every examples/<name> path
// of namedTestDocs that is not a directory of this module holding a
// package main: a reader runs it with `go run ./examples/<name>`, so a
// renamed or deleted example must not leave a document pointing at it.
func TestDocsNameExistingExamples(t *testing.T) {
	for _, doc := range namedTestDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range docExample.FindAllString(string(src), -1) {
			if !isMainPackage(t, dir) {
				t.Errorf("%s names %s, which is not a directory holding a package main", doc, dir)
			}
		}
	}
}

// isMainPackage reports whether dir holds a non-test Go file of package
// main.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" {
			return true
		}
	}
	return false
}
