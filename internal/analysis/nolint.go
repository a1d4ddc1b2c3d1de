package analysis

import (
	"go/token"
	"regexp"
	"strings"
	"unicode"
)

// Suppression directive:
//
//	//nolint:bcast-<name>[,bcast-<name>...] // <reason>
//
// The reason is mandatory — a directive without one does not suppress
// anything and is itself reported. A reason must carry at least one
// letter or digit: "--", "..." and other punctuation shells are
// rejected the same as an absent reason. A directive applies to
// diagnostics on its own line and, so it can stand alone above a long
// statement, on the line directly below it.
var nolintRe = regexp.MustCompile(`^//\s*nolint:([a-zA-Z0-9_,-]+)(.*)$`)

type nolintDirective struct {
	pos       token.Position
	analyzers []string // names with the bcast- prefix stripped
	hasReason bool
}

// parseNolintDirective parses one raw comment. ok is false when the
// comment is not a bcast nolint directive at all (other linters'
// directives pass through untouched); names are the analyzer names with
// the bcast- prefix stripped; hasReason reports a substantive reason —
// at least one letter or digit after the comment markers are trimmed.
func parseNolintDirective(text string) (names []string, hasReason, ok bool) {
	m := nolintRe.FindStringSubmatch(text)
	if m == nil {
		return nil, false, false
	}
	for _, n := range strings.Split(m[1], ",") {
		// A name left empty or still prefixed once bcast- is cut names no
		// analyzer.
		if rest, cut := strings.CutPrefix(n, "bcast-"); cut && rest != "" && !strings.HasPrefix(rest, "bcast-") {
			names = append(names, rest)
		}
	}
	if len(names) == 0 {
		return nil, false, false // not ours (e.g. a golangci directive)
	}
	reason := strings.TrimSpace(m[2])
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(reason, "//"), "--"))
	hasReason = strings.ContainsFunc(reason, func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r)
	})
	return names, hasReason, true
}

type nolintSet struct {
	// byFile maps filename -> directives in that file.
	byFile map[string][]nolintDirective
}

func collectNolint(u *Unit) nolintSet {
	set := nolintSet{byFile: map[string][]nolintDirective{}}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, hasReason, ok := parseNolintDirective(c.Text)
				if !ok {
					continue
				}
				d := nolintDirective{
					pos:       u.Fset.Position(c.Pos()),
					analyzers: names,
					hasReason: hasReason,
				}
				set.byFile[d.pos.Filename] = append(set.byFile[d.pos.Filename], d)
			}
		}
	}
	return set
}

// suppresses reports whether a directive with a reason covers a
// diagnostic of the named analyzer at pos.
func (s nolintSet) suppresses(analyzer string, pos token.Position) bool {
	for _, d := range s.byFile[pos.Filename] {
		if !d.hasReason {
			continue
		}
		if pos.Line != d.pos.Line && pos.Line != d.pos.Line+1 {
			continue
		}
		for _, n := range d.analyzers {
			if n == analyzer {
				return true
			}
		}
	}
	return false
}

// reasonless returns one diagnostic per directive that is missing its
// mandatory reason.
func (s nolintSet) reasonless() []Diagnostic {
	var out []Diagnostic
	for _, ds := range s.byFile {
		for _, d := range ds {
			if !d.hasReason {
				out = append(out, Diagnostic{
					Pos:      d.pos,
					Analyzer: "nolint",
					Message:  "nolint:bcast-" + strings.Join(d.analyzers, ",bcast-") + " directive needs a reason (//nolint:bcast-name // why)",
				})
			}
		}
	}
	return out
}
