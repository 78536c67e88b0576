// Package lint is the project's static-analysis suite: a set of
// go/analysis-style analyzers that mechanically enforce the engine's
// determinism, lock-hygiene, hot-path-allocation and error-classification
// invariants, plus the godoc contract previously policed by a standalone
// exported-doc walk. The suite is driven by cmd/geminilint and
// runs in CI next to vet; every invariant it checks was once broken (or
// nearly broken) by a real regression — see docs/lint.md for the history.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) but is built entirely on the standard
// library (go/ast, go/types, go/importer), because this repository carries
// no external dependencies. Packages opt in to the stricter analyzers with
// directive comments (//gemini:deterministic, //gemini:documented) and
// individual findings are silenced with per-analyzer suppression comments
// that must carry a reason (for example //gemini:nondeterministic-ok sorted
// below). See docs/lint.md for the full directive and suppression syntax.
//
//gemini:documented
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring golang.org/x/tools/go/analysis:
// Run inspects a type-checked package through its Pass and reports findings
// with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph description shown by geminilint -list.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package, plus the
// diagnostic sink.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the loaded package under analysis.
	Pkg *Package

	diags []Diagnostic
}

// Diagnostic is one finding, locatable for sorting and rendering.
type Diagnostic struct {
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message states the invariant violation and the fix.
	Message string
}

// String renders the diagnostic in the file:line:col: [analyzer] message
// form geminilint prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a suppression comment covers it.
// Suppression is the analyzer's //gemini:<directive>-ok comment on the
// finding's line or the line immediately above; it must carry a reason.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressionDirectives maps each analyzer to its suppression comment. The
// determinism spelling is historical (it predates the -ok convention of the
// others); everything else is <name>-ok.
var suppressionDirectives = map[string]string{
	"determinism":  "nondeterministic-ok",
	"lockhygiene":  "lock-ok",
	"hotpathalloc": "alloc-ok",
	"errclass":     "errclass-ok",
}

// suppressed reports whether pos is covered by the running analyzer's
// suppression directive: a //gemini:<directive> comment, with a non-empty
// reason, on the same line or the line immediately above.
func (p *Pass) suppressed(pos token.Pos) bool {
	directive, ok := suppressionDirectives[p.Analyzer.Name]
	if !ok {
		return false
	}
	position := p.Pkg.Fset.Position(pos)
	lines, ok := p.Pkg.suppressions[directive]
	if !ok {
		return false
	}
	byFile := lines[position.Filename]
	return byFile[position.Line] || byFile[position.Line-1]
}

// Directive is one //gemini:key value comment, located for attachment to
// the declaration it documents.
type Directive struct {
	// Key is the directive name after "gemini:" (for example "noalloc").
	Key string
	// Value is the rest of the comment line (annotation argument or
	// suppression reason), space-trimmed.
	Value string
	// Pos locates the directive comment.
	Pos token.Pos
}

// parseDirective decodes one comment as a //gemini: directive; ok is false
// for ordinary comments.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, "gemini:") {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, "gemini:")
	key, value, _ := strings.Cut(rest, " ")
	key = strings.TrimSpace(key)
	if key == "" {
		return Directive{}, false
	}
	return Directive{Key: key, Value: strings.TrimSpace(value), Pos: c.Pos()}, true
}

// directives returns every //gemini:key directive in the comment group, in
// order. A nil group is fine.
func directives(g *ast.CommentGroup) []Directive {
	if g == nil {
		return nil
	}
	var out []Directive
	for _, c := range g.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// hasDirective reports whether the comment group carries //gemini:key, and
// returns its value.
func hasDirective(g *ast.CommentGroup, key string) (string, bool) {
	for _, d := range directives(g) {
		if d.Key == key {
			return d.Value, true
		}
	}
	return "", false
}

// PackageDirective reports whether any file-level comment in the package
// carries //gemini:key (package-wide opt-ins like //gemini:deterministic
// are conventionally written next to the package clause).
func (pkg *Package) PackageDirective(key string) bool {
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			if _, ok := hasDirective(g, key); ok {
				return true
			}
		}
	}
	return false
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		LockHygieneAnalyzer,
		HotPathAllocAnalyzer,
		ErrClassAnalyzer,
		ExportedDocAnalyzer,
	}
}

// Run executes the analyzers over the packages and returns every finding,
// sorted by position. An analyzer error aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			diags = append(diags, pass.diags...)
		}
	}
	sort.Slice(diags, func(a, b int) bool {
		da, db := diags[a], diags[b]
		if da.Pos.Filename != db.Pos.Filename {
			return da.Pos.Filename < db.Pos.Filename
		}
		if da.Pos.Line != db.Pos.Line {
			return da.Pos.Line < db.Pos.Line
		}
		if da.Pos.Column != db.Pos.Column {
			return da.Pos.Column < db.Pos.Column
		}
		return da.Analyzer < db.Analyzer
	})
	return diags, nil
}
