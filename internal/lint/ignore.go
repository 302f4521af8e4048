package lint

import (
	"go/ast"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int // line the comment sits on; it covers this line and the next
	analyzer string
	reason   string
	used     bool
}

// applyIgnores filters ds through the //lint:ignore directives found in
// p's files. A directive suppresses findings of its analyzer on the
// directive's own line and on the line directly below it (so it works both
// as a trailing comment and as a comment above the flagged statement).
//
// The escape hatch is deliberately noisy to misuse: a directive without an
// analyzer name and a non-empty reason, naming an unknown analyzer, or
// suppressing nothing is itself reported under the "lint" analyzer, so
// stale suppressions cannot accumulate silently.
func applyIgnores(p *Package, ds []Diagnostic, known map[string]bool) []Diagnostic {
	var directives []*ignoreDirective
	var meta []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok { // /* */ comment
					text = strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					meta = append(meta, diag(p, c.Pos(), "lint",
						"malformed ignore directive: want //lint:ignore <analyzer> <reason> (the reason is mandatory)"))
					continue
				}
				if !known[fields[0]] {
					meta = append(meta, diag(p, c.Pos(), "lint",
						"ignore directive names unknown analyzer %q", fields[0]))
					continue
				}
				directives = append(directives, &ignoreDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	var kept []Diagnostic
	for _, d := range ds {
		suppressed := false
		for _, dir := range directives {
			if dir.analyzer == d.Analyzer && dir.file == d.File &&
				(dir.line == d.Line || dir.line == d.Line-1) {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range directives {
		if !dir.used {
			kept = append(kept, Diagnostic{
				File:     dir.file,
				Line:     dir.line,
				Analyzer: "lint",
				Message:  "unused ignore directive for " + dir.analyzer + ": nothing is flagged here",
			})
		}
	}
	return append(kept, meta...)
}

// ident returns e as a plain identifier, or nil.
func ident(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}
