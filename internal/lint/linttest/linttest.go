// Package linttest runs dplint analyzers over fixture packages and
// compares the reported diagnostics against `// want "regexp"` comments
// in the fixture sources — the x/tools analysistest convention, rebuilt
// on the standalone driver so the suite needs nothing outside the
// standard library.
//
// Fixture packages live under <dir>/src/<importpath>; they may import
// each other (facts flow dependency-first) and real module packages.
// Every line carrying one or more want comments must produce exactly
// matching diagnostics, and every diagnostic must be wanted. A fixture
// package's _test.go files, in-package and external, are analyzed and
// carry wants like its other files.
package linttest

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"deepmd-go/internal/lint"
	"deepmd-go/internal/lint/driver"
)

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string // cleaned path, comparable with Diag.Pos.Filename
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run analyzes the fixture packages named by patterns (import paths
// under dir/src) and checks their diagnostics against want comments.
// Dependencies of the patterns are analyzed for facts but only
// pattern-matched packages report, so a fixture can exercise fact
// propagation from packages that carry no wants themselves.
func Run(t *testing.T, dir string, analyzers []*lint.Analyzer, patterns ...string) {
	t.Helper()
	src := filepath.Join(dir, "src")
	diags, err := driver.Run(driver.Config{
		Dir:       ".",
		ExtraRoot: src,
		Patterns:  patterns,
	}, analyzers)
	if err != nil {
		t.Fatalf("linttest: driver: %v", err)
	}
	wants := parseWants(t, src, patterns)

	for _, d := range diags {
		if w := claim(wants, d.Pos.Filename, d.Pos.Line, d.Message); w == nil {
			t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
		}
	}
}

// claim marks and returns the first unmatched want on the diagnostic's
// line whose regexp matches the message.
func claim(wants []*want, file string, line int, msg string) *want {
	file = filepath.Clean(file)
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return w
		}
	}
	return nil
}

// parseWants scans the pattern packages' fixture sources, test files
// included, for want comments. The comment grammar is the analysistest
// one restricted to message regexps: `// want "re"` or `// want `re“,
// several per comment, anchored to the comment's own line.
func parseWants(t *testing.T, src string, patterns []string) []*want {
	t.Helper()
	var wants []*want
	for _, pat := range patterns {
		pkgDir := filepath.Join(src, filepath.FromSlash(pat))
		entries, err := os.ReadDir(pkgDir)
		if err != nil {
			t.Fatalf("linttest: fixture package %s: %v", pat, err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(pkgDir, e.Name())
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("linttest: %s: %v", path, err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, w := range wantsOf(t, path, c.Text) {
						w.file = filepath.Clean(path)
						w.line = fset.Position(c.Pos()).Line
						wants = append(wants, w)
					}
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// wantsOf extracts the quoted regexps of one comment's want clause. A
// want may also be a /* want "re" */ block comment, which leaves room on
// its line for the //dp: directive it expects a diagnostic about.
func wantsOf(t *testing.T, path, text string) []*want {
	t.Helper()
	if body, ok := strings.CutPrefix(text, "/*"); ok {
		text = strings.TrimSuffix(body, "*/")
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !ok {
		return nil
	}
	var out []*want
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		var raw string
		switch rest[0] {
		case '"':
			end := -1
			for i := 1; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					continue
				}
				if rest[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("linttest: %s: unterminated want string in %q", path, text)
			}
			raw = rest[:end+1]
			rest = rest[end+1:]
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("linttest: %s: unterminated want backquote in %q", path, text)
			}
			raw = rest[:end+2]
			rest = rest[end+2:]
		default:
			t.Fatalf("linttest: %s: want expects quoted regexps, got %q", path, rest)
		}
		unq, err := strconv.Unquote(raw)
		if err != nil {
			t.Fatalf("linttest: %s: bad want literal %s: %v", path, raw, err)
		}
		re, err := regexp.Compile(unq)
		if err != nil {
			t.Fatalf("linttest: %s: bad want regexp %s: %v", path, raw, err)
		}
		out = append(out, &want{re: re, raw: fmt.Sprintf("%q", unq)})
	}
	return out
}
