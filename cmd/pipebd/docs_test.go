package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// commandDocs are the files whose pipebd commands a reader copies: the
// repository's documents, this command's own comments, and CI.
var commandDocs = []string{"../../README.md", "../../doc.go", "../../.claude/skills/verify/SKILL.md",
	"../../.github/workflows/ci.yml", "main.go", "worker.go", "gantt.go", "profile.go"}

var (
	// docCommand matches "pipebd WORD" as a command starts: after a path
	// (bin/pipebd, ./cmd/pipebd), a quote, a backtick or a space.
	docCommand = regexp.MustCompile("(?:^|[\\s`\"'(/])pipebd +(\\S+)")
	// commandEnd ends a command: a closing backtick, a pipe, a redirect,
	// a shell separator or comment, or a closing parenthesis.
	commandEnd = regexp.MustCompile("`|\\||[<>&;)]| #")
	// retiredBinary matches the binaries the modes replaced.
	retiredBinary = regexp.MustCompile(`\bpipebd-(worker|sched|trace)\b`)
)

// docLines returns a file's lines as a reader sees them: a Go file's
// comment text (code lines blank), everything else as is, with
// \-continued lines joined onto their first line.
func docLines(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	if strings.HasSuffix(path, ".go") {
		for i, l := range lines {
			text, ok := strings.CutPrefix(strings.TrimSpace(l), "//")
			if !ok {
				text = ""
			}
			lines[i] = text
		}
	}
	for i := range lines {
		for j := i + 1; strings.HasSuffix(lines[i], "\\") && j < len(lines); j++ {
			lines[i] = strings.TrimSuffix(lines[i], "\\") + " " + lines[j]
			lines[j] = ""
		}
	}
	return lines
}

// parseCommand parses one command's arguments with its mode's flag set
// and records the flags it set. A token holding a shell variable stands
// for a value; "1" parses as every flag type.
func parseCommand(m mode, args []string, set map[string]bool) ([]string, error) {
	for i, a := range args {
		if args[i] = strings.Trim(a, `"'`); strings.Contains(a, "$") {
			args[i] = "1"
		}
	}
	fs, _ := m.flagSet()
	pos, err := parseFlags(fs, args)
	if err == nil {
		fs.Visit(func(f *flag.Flag) { set[m.name+" -"+f.Name] = true })
	}
	return pos, err
}

func modeNamed(name string) (mode, bool) {
	i := slices.IndexFunc(modes, func(m mode) bool { return m.name == name })
	if i < 0 {
		return mode{}, false
	}
	return modes[i], true
}

// TestDocumentedCommandsParse checks the commands of commandDocs against
// the real flag sets, both ways. Forward: every "pipebd MODE …" command
// parses with MODE's own flag set, takes the positional arguments MODE
// takes and names only registered experiments, and no command starts
// with a flag or runs a retired binary. Reverse: every flag of every
// mode is set by such a command or by a command-line literal of this
// package's tests ([]string{"MODE", …}), or nothing shows it still works.
func TestDocumentedCommandsParse(t *testing.T) {
	set := map[string]bool{}
	for _, doc := range commandDocs {
		for n, line := range docLines(t, doc) {
			where := filepath.Base(doc) + ":" + strconv.Itoa(n+1)
			if m := retiredBinary.FindString(line); m != "" {
				t.Errorf("%s: names the retired binary %s; it is a pipebd mode now", where, m)
			}
			for _, loc := range docCommand.FindAllStringSubmatchIndex(line, -1) {
				word := line[loc[2]:loc[3]]
				if strings.HasPrefix(word, "-") {
					t.Errorf("%s: pipebd %s: a command names its mode first", where, word)
					continue
				}
				m, ok := modeNamed(word)
				if !ok {
					continue // prose: "pipebd reproduces …"
				}
				rest := line[loc[3]:]
				if end := commandEnd.FindStringIndex(rest); end != nil {
					rest = rest[:end[0]]
				}
				pos, err := parseCommand(m, strings.Fields(rest), set)
				switch {
				case err != nil:
					t.Errorf("%s: pipebd %s%s: %v", where, word, rest, err)
				case len(pos) < m.min || len(pos) > m.max:
					t.Errorf("%s: pipebd %s%s: takes %s, got %q", where, word, rest, m.args, pos)
				case m.name == "exp" && len(pos) == 1 && pos[0] != "all" && !slices.Contains(expNames(), pos[0]):
					t.Errorf("%s: pipebd exp %s: no such experiment", where, pos[0])
				}
			}
		}
	}
	set = testCommandFlags(t, set)
	for _, m := range modes {
		fs, _ := m.flagSet()
		fs.VisitAll(func(f *flag.Flag) {
			if !set[m.name+" -"+f.Name] {
				t.Errorf("pipebd %s -%s: no test, CI step or documented command sets it; test it or delete it", m.name, f.Name)
			}
		})
	}
}

// testCommandFlags adds to set the flags that the command lines written
// as []string literals in this package's tests set: a literal whose
// first element names a mode and that parses. Non-literal elements are
// values.
func testCommandFlags(t *testing.T, set map[string]bool) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			var args []string
			for _, e := range lit.Elts {
				s := "1"
				if b, ok := e.(*ast.BasicLit); ok && b.Kind == token.STRING {
					s, _ = strconv.Unquote(b.Value)
				} else if len(args) == 0 {
					return true
				}
				args = append(args, s)
			}
			if m, ok := modeNamed(args[0]); ok {
				parseCommand(m, args[1:], set)
			}
			return true
		})
	}
	return set
}
