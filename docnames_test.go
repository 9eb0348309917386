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
			declared = append(declared, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
