package lint

import (
	"go/ast"
	"strings"
)

// suppressions records, per file and line, which checks are ignored.
//
// A comment of the form
//
//	//lint:ignore check1[,check2] reason
//
// suppresses the listed checks on the comment's own line (trailing comment)
// and on the next line that contains actual code — blank lines and further
// comments (doc comments, grouped directives) between the directive and its
// statement are skipped, so a directive cannot silently stop suppressing
// just because a doc comment was inserted under it. "all" suppresses every
// check; "noalloc" is also accepted (see noallocCheck). A missing reason makes the suppression itself a diagnostic: silent
// escape hatches are exactly what the linter exists to prevent.
type suppressions struct {
	byLine    map[suppressKey]bool
	malformed []Diagnostic
}

type suppressKey struct {
	file  string
	line  int
	check string
}

const ignorePrefix = "//lint:ignore"

// noallocCheck is not an analyzer: cmd/noalloccheck reads directives naming
// it against the compiler's escape notes, so the name must stay valid here.
const noallocCheck = "noalloc"

func collectSuppressions(p *Package) *suppressions {
	s := &suppressions{byLine: map[suppressKey]bool{}}
	for _, f := range p.Files {
		pos := p.Position(f.Pos())
		codeLines := codeLineSet(p, f, pos.Filename)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignorefoo — not ours
				}
				fields := strings.Fields(rest)
				cpos := p.Position(c.Pos())
				if len(fields) < 2 {
					s.malformed = append(s.malformed, diag(p, "lintdirective", c.Pos(),
						"malformed %s directive: want \"%s <check>[,<check>] <reason>\"", ignorePrefix, ignorePrefix))
					continue
				}
				target := nextCodeLine(codeLines, cpos.Line)
				for _, check := range strings.Split(fields[0], ",") {
					check = strings.TrimSpace(check)
					if check == "" {
						continue
					}
					if check != "all" && check != noallocCheck && AnalyzerByName(check) == nil {
						s.malformed = append(s.malformed, diag(p, "lintdirective", c.Pos(),
							"%s names unknown check %q", ignorePrefix, check))
						continue
					}
					s.byLine[suppressKey{cpos.Filename, cpos.Line, check}] = true
					if target > 0 {
						s.byLine[suppressKey{cpos.Filename, target, check}] = true
					}
				}
			}
		}
	}
	return s
}

// codeLineSet computes, for one file, which line numbers carry actual code:
// at least one non-whitespace byte outside every comment span. Lines that
// are blank or comment-only are absent from the set.
func codeLineSet(p *Package, f *ast.File, filename string) map[int]bool {
	src, ok := p.Src[filename]
	if !ok {
		return nil
	}
	inComment := make([]bool, len(src))
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			start := p.Position(c.Pos()).Offset
			end := p.Position(c.End()).Offset
			for i := start; i < end && i < len(inComment); i++ {
				inComment[i] = true
			}
		}
	}
	lines := map[int]bool{}
	line := 1
	for i, b := range src {
		switch b {
		case '\n':
			line++
		case ' ', '\t', '\r':
		default:
			if !inComment[i] {
				lines[line] = true
			}
		}
	}
	return lines
}

// nextCodeLine returns the first line strictly after the directive's line
// that contains code, or 0 when the file ends first. With no source bytes
// available (a synthetic Package) it falls back to the adjacent line.
func nextCodeLine(codeLines map[int]bool, after int) int {
	if codeLines == nil {
		return after + 1
	}
	best := 0
	for line := range codeLines {
		if line > after && (best == 0 || line < best) {
			best = line
		}
	}
	return best
}

func (s *suppressions) covers(d Diagnostic) bool {
	return s.byLine[suppressKey{d.File, d.Line, d.Check}] ||
		s.byLine[suppressKey{d.File, d.Line, "all"}]
}
