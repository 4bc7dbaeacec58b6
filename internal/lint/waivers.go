package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// waiverPrefix introduces a waiver, a comment of the form
//
//	//lint:allow <check>(<reason>)
//
// trailing the line whose findings it excuses, or alone on the line above
// it. One waiver excuses only the named check's findings on its target line.
const waiverPrefix = "//lint:allow"

// waiverCheck names the audit's own findings. It is no check, so no waiver
// can excuse them.
const waiverCheck = "lintdirective"

// audit applies a package's waivers to the findings of its checks. It
// returns the findings no waiver excuses, plus one finding per waiver that
// is malformed (no check name, or no reason), names no check, or excuses
// nothing on its target line: a waiver that outlived its finding, or that
// names the wrong check. So every waiver in force is reasoned and used.
func audit(fset *token.FileSet, files []*ast.File, found []Finding) []Finding {
	type target struct {
		file  string
		line  int
		check string
	}
	type waiver struct {
		target
		pos token.Position
	}
	var (
		out     []Finding
		waivers []waiver
		used    = map[target]bool{} // every waiver's target: has it excused a finding?
	)
	for _, f := range files {
		code := codeLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !isWaiver(c.Text) {
					continue
				}
				pos := fset.Position(c.Pos())
				name, ok := parseWaiver(c.Text)
				switch {
				case !ok:
					out = append(out, Finding{pos, waiverCheck,
						"malformed lint:allow directive: want //lint:allow <analyzer>(<reason>) with a non-empty reason"})
				case !slices.Contains(Checks(), name):
					out = append(out, Finding{pos, waiverCheck, fmt.Sprintf("unknown check %q in lint:allow directive", name)})
				default:
					line := pos.Line
					if !code[line] {
						line++
					}
					t := target{pos.Filename, line, name}
					used[t] = false
					waivers = append(waivers, waiver{t, pos})
				}
			}
		}
	}
	for _, f := range found {
		t := target{f.Pos.Filename, f.Pos.Line, f.Check}
		if _, ok := used[t]; ok {
			used[t] = true
			continue
		}
		out = append(out, f)
	}
	for _, w := range waivers {
		if !used[w.target] {
			out = append(out, Finding{w.pos, waiverCheck, fmt.Sprintf(
				"stale lint:allow directive: %s reports no diagnostic on its target line; remove the waiver", w.check)})
		}
	}
	return out
}

// codeLines returns the lines of f that hold a token other than a comment:
// a waiver on such a line targets it, a waiver alone on its line targets
// the next one.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		// Only the node's first and last lines: the interior lines of a
		// FuncDecl or BlockStmt belong to its children, and a comment-only
		// line inside it must stay comment-only.
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// isWaiver reports whether the comment is a //lint:allow directive, well
// formed or not. "//lint:allowfoo" is an unrelated comment.
func isWaiver(text string) bool {
	rest, ok := strings.CutPrefix(text, waiverPrefix)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t' || rest[0] == '(')
}

// parseWaiver returns the check a "//lint:allow name(reason)" names. It
// fails on a bare directive, a missing or empty reason, an unclosed
// parenthesis, or a name that is empty or more than one word.
func parseWaiver(text string) (string, bool) {
	body := strings.TrimSpace(strings.TrimPrefix(text, waiverPrefix))
	open := strings.IndexByte(body, '(')
	if open <= 0 || !strings.HasSuffix(body, ")") {
		return "", false
	}
	name := strings.TrimSpace(body[:open])
	reason := strings.TrimSpace(body[open+1 : len(body)-1])
	if name == "" || strings.ContainsAny(name, " \t") || reason == "" {
		return "", false
	}
	return name, true
}
