package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
	"unicode/utf8"
)

// ErrSentinel forbids identity and string comparison of sentinel errors
// — fault.ErrRetryBudget, bestfirst.ErrExpansionLimit, and friends
// travel wrapped (%w), so == misses them and errors.Is is the only
// comparison that stays correct. The other half of that contract: a
// sentinel handed to fmt.Errorf must be wrapped by a %w verb, or
// errors.Is stops matching at that wrap. Test files are checked too:
// tests are where sentinel comparisons concentrate.
//
// Error text is err.Error(), fmt.Sprint(err), fmt.Sprintf("%v" or "%s",
// err), or a local variable whose := definition is one of these; the
// analyzer follows that one definition and no further.
var ErrSentinel = &Analyzer{
	Name: "errsentinel",
	Doc: "sentinel errors must be tested with errors.Is, never with ==/!=, switch, err.Error() text, or " +
		"strings matching, and fmt.Errorf must wrap them with %w",
	Run: runErrSentinel,
}

func runErrSentinel(pass *Pass) {
	for _, f := range pass.Files {
		text := errTexts{info: pass.Info, defs: localDefs(pass.Info, f)}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkErrComparison(pass, text, n)
				}
			case *ast.SwitchStmt:
				checkErrSwitch(pass, n)
			case *ast.CallExpr:
				checkErrStringMatch(pass, text, n)
				checkSentinelWrap(pass, n)
			}
			return true
		})
	}
}

// localDefs maps each variable a := statement in f defines to the
// expression it is defined as.
func localDefs(info *types.Info, f *ast.File) map[types.Object]ast.Expr {
	defs := map[types.Object]ast.Expr{}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil {
				defs[info.Defs[id]] = as.Rhs[i]
			}
		}
		return true
	})
	return defs
}

// sentinelVar resolves e to a package-level error variable, the shape
// of every sentinel (var ErrX = errors.New(...)).
func sentinelVar(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// errTexts recognizes error text in one file.
type errTexts struct {
	info *types.Info
	defs map[types.Object]ast.Expr // from localDefs
}

// is reports whether e is error text, directly or through the :=
// definition of the local variable e names.
func (x errTexts) is(e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if def, ok := x.defs[x.info.Uses[id]]; ok {
			e = def
		}
	}
	return errorTextCall(x.info, e)
}

// errorTextCall reports whether e calls the Error() string method of an
// error value, or formats one error alone with fmt.Sprint or with
// fmt.Sprintf("%v") or ("%s"), which call that method.
func errorTextCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	args := call.Args
	if funcPkgPath(f) == "fmt" {
		switch {
		case f.Name() == "Sprintf" && len(args) == 2:
			tv := info.Types[args[0]]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				return false
			}
			if format := constant.StringVal(tv.Value); format != "%v" && format != "%s" {
				return false
			}
			args = args[1:]
		case f.Name() != "Sprint":
			return false
		}
		return len(args) == 1 && !call.Ellipsis.IsValid() && isErrorType(info.TypeOf(args[0]))
	}
	if f.Name() != "Error" || len(args) != 0 {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isErrorType(sig.Recv().Type())
}

func checkErrComparison(pass *Pass, text errTexts, n *ast.BinaryExpr) {
	if text.is(n.X) || text.is(n.Y) {
		pass.Reportf(n.Pos(), "comparing err.Error() text is brittle under wrapping; use errors.Is or errors.As")
		return
	}
	for _, side := range []ast.Expr{n.X, n.Y} {
		if v := sentinelVar(pass.Info, side); v != nil {
			// Only flag comparisons against an error-typed counterpart;
			// comparing to nil stays idiomatic.
			other := n.Y
			if side == n.Y {
				other = n.X
			}
			if tv, ok := pass.Info.Types[other]; ok && tv.IsNil() {
				return
			}
			pass.Reportf(n.Pos(), "sentinel %s compared with %s; wrapped errors escape identity checks — use errors.Is(err, %s)", v.Name(), n.Op, v.Name())
			return
		}
	}
}

func checkErrSwitch(pass *Pass, n *ast.SwitchStmt) {
	if n.Tag == nil {
		return
	}
	tv, ok := pass.Info.Types[n.Tag]
	if !ok || !isErrorType(tv.Type) {
		return
	}
	for _, c := range n.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if v := sentinelVar(pass.Info, e); v != nil {
				pass.Reportf(e.Pos(), "switch matches sentinel %s by identity; wrapped errors escape it — use errors.Is(err, %s)", v.Name(), v.Name())
			}
		}
	}
}

func checkErrStringMatch(pass *Pass, text errTexts, n *ast.CallExpr) {
	f := calleeFunc(pass.Info, n)
	if f == nil || funcPkgPath(f) != "strings" {
		return
	}
	switch f.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	for _, arg := range n.Args {
		if text.is(arg) {
			pass.Reportf(n.Pos(), "matching err.Error() with strings.%s is brittle under wrapping; use errors.Is or errors.As", f.Name())
			return
		}
	}
}

// checkSentinelWrap flags a sentinel passed to fmt.Errorf that no %w
// verb wraps.
func checkSentinelWrap(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || funcPkgPath(f) != "fmt" || f.Name() != "Errorf" || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format, operands := constant.StringVal(tv.Value), call.Args[1:]
	for i, arg := range operands {
		if v := sentinelVar(pass.Info, arg); v != nil && verbForArg(format, len(operands), i) != 'w' {
			pass.Reportf(arg.Pos(), "sentinel %s is formatted without %%w; wrap it (fmt.Errorf(\"...: %%w\", %s)) so errors.Is keeps working", v.Name(), v.Name())
		}
	}
}

// verbForArg returns the verb fmt.Errorf(format, ...) gives operand
// argIdx of nargs: 'w' when a %w verb wraps it, otherwise the first verb
// that formats it, or 0 when none does. It follows fmt's own parse: a
// % verb formats nothing, even with flags or a width ("%-5%"), a * width
// or precision consumes an operand without formatting it, an explicit index [n] moves the operand cursor, and a
// verb whose index is bad or whose operand is missing formats nothing.
func verbForArg(format string, nargs, argIdx int) rune {
	var first rune
	argNum, end := 0, len(format)
	for i := 0; i < end; {
		if format[i] != '%' {
			i++
			continue
		}
		i++
		for i < end && strings.IndexByte("#0+- ", format[i]) >= 0 {
			i++
		}
		good, afterIndex := true, false
		index := func() {
			var ok bool
			argNum, i, afterIndex, ok = fmtArgIndex(format, i, argNum, nargs)
			good = good && ok
		}
		star := func() bool {
			if i < end && format[i] == '*' {
				i++
				if argNum < nargs {
					argNum++
				}
				afterIndex = false
				return true
			}
			return false
		}
		index()
		if !star() {
			var wid bool
			_, wid, i = fmtNum(format, i, end)
			if afterIndex && wid { // "%[3]2d"
				good = false
			}
		}
		if i+1 < end && format[i] == '.' {
			i++
			if afterIndex { // "%[3].2d"
				good = false
			}
			index()
			if !star() {
				_, _, i = fmtNum(format, i, end)
			}
		}
		if !afterIndex {
			index()
		}
		if i >= end {
			break
		}
		verb, size := utf8.DecodeRuneInString(format[i:])
		i += size
		if verb == '%' || !good || argNum >= nargs {
			continue
		}
		if argNum == argIdx {
			if verb == 'w' {
				return 'w'
			}
			if first == 0 {
				first = verb
			}
		}
		argNum++
	}
	return first
}

// fmtArgIndex parses an explicit operand index [n] at format[i] the way
// fmt does. It returns the operand cursor, the position after the index,
// whether an index was found, and false when the index is malformed or
// out of range (the verb then formats nothing).
func fmtArgIndex(format string, i, argNum, nargs int) (int, int, bool, bool) {
	if i >= len(format) || format[i] != '[' {
		return argNum, i, false, true
	}
	if len(format)-i < 3 {
		return argNum, i + 1, false, false
	}
	for j := i + 1; j < len(format); j++ {
		if format[j] == ']' {
			n, ok, next := fmtNum(format, i+1, j)
			if !ok || next != j {
				return argNum, j + 1, false, false
			}
			if n < 1 || n > nargs {
				return argNum, j + 1, true, false
			}
			return n - 1, j + 1, true, true
		}
	}
	return argNum, i + 1, false, false
}

// fmtNum parses a decimal number in s[start:end] as fmt's parsenum does,
// giving up on (and skipping to end past) numbers above a million.
func fmtNum(s string, start, end int) (num int, isnum bool, next int) {
	if start >= end {
		return 0, false, end
	}
	for next = start; next < end && '0' <= s[next] && s[next] <= '9'; next++ {
		if num > 1e6 {
			return 0, false, end
		}
		num = num*10 + int(s[next]-'0')
		isnum = true
	}
	return num, isnum, next
}
