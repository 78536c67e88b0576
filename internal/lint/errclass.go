// The errclass analyzer: error classification must survive wrapping.
// ErrInfeasible vs infrastructure-error is the sweep engine's core honesty
// contract, and a typed CellError is how a recovered panic is told apart
// from every other failure; both break silently the moment an error is
// compared with == or matched as a string, or re-wrapped with %v so
// errors.Is/As stop seeing the chain.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrClassAnalyzer flags == / != / switch comparisons between non-nil
// errors, string matching on err.Error(), and fmt.Errorf calls that format
// an error argument without any %w verb. Fix with errors.Is / errors.As /
// %w; suppress a deliberate identity comparison with
// //gemini:errclass-ok <reason>.
var ErrClassAnalyzer = &Analyzer{
	Name: "errclass",
	Doc: "compare errors with errors.Is/errors.As (never == or string " +
		"matching) and wrap with %w so typed classification survives; " +
		"suppress with //gemini:errclass-ok <reason>",
	Run: runErrClass,
}

func runErrClass(pass *Pass) error {
	for _, fd := range funcDecls(pass.Pkg) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				checkErrCompare(pass, e)
			case *ast.SwitchStmt:
				checkErrSwitch(pass, e)
			case *ast.CallExpr:
				checkErrStringMatch(pass, e)
				checkErrorfWrap(pass, e)
			}
			return true
		})
	}
	return nil
}

// checkErrCompare flags err1 == err2 where both sides are non-nil errors.
func checkErrCompare(pass *Pass, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	info := pass.Pkg.TypesInfo
	if !isErrorExpr(info, e.X) || !isErrorExpr(info, e.Y) {
		return
	}
	if isNilExpr(info, e.X) || isNilExpr(info, e.Y) {
		return // err == nil is the one sanctioned identity check
	}
	pass.Reportf(e.Pos(), "error compared with %s: wrapped errors never compare equal — use errors.Is (or errors.As for typed errors)", e.Op)
}

// checkErrSwitch flags `switch err { case ErrX: }` — the same identity
// comparison in switch clothing.
func checkErrSwitch(pass *Pass, s *ast.SwitchStmt) {
	info := pass.Pkg.TypesInfo
	if s.Tag == nil || !isErrorExpr(info, s.Tag) {
		return
	}
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, v := range cc.List {
			if !isNilExpr(info, v) {
				pass.Reportf(v.Pos(), "switch compares errors by identity: wrapped errors never match — use errors.Is in an if/else chain")
			}
		}
	}
}

// checkErrStringMatch flags strings.Contains/HasPrefix/HasSuffix/EqualFold
// over err.Error(), and err.Error() == "..." comparisons are caught by the
// string operands below.
func checkErrStringMatch(pass *Pass, call *ast.CallExpr) {
	pkg, name := calleePath(pass.Pkg.TypesInfo, call)
	if pkg != "strings" {
		return
	}
	switch name {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorStringCall(pass.Pkg.TypesInfo, arg) {
			pass.Reportf(call.Pos(), "matching err.Error() text with strings.%s: error text is not API — classify with errors.Is/errors.As against a sentinel or typed error", name)
			return
		}
	}
}

// isErrorStringCall matches expressions of the form err.Error().
func isErrorStringCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorExpr(info, sel.X)
}

// checkErrorfWrap flags fmt.Errorf("... %v ...", err) with no %w anywhere
// in the format: flattening an error into text drops its errors.Is/As
// classification (infeasibility, cancellation, a recovered cell panic) on
// the floor.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.TypesInfo
	pkg, name := calleePath(info, call)
	if pkg != "fmt" || name != "Errorf" || len(call.Args) < 2 {
		return
	}
	format, ok := constString(info, call.Args[0])
	if !ok || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErrorExpr(info, arg) && !isNilExpr(info, arg) {
			pass.Reportf(arg.Pos(), "error flattened into fmt.Errorf without %%w: the typed classification (errors.Is/errors.As) is lost — wrap with %%w or keep the sentinel in the chain")
			return
		}
	}
}

// constString evaluates a constant string expression.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s := tv.Value.ExactString()
	if len(s) >= 2 && s[0] == '"' {
		// ExactString quotes string constants; the quoted form is fine for
		// substring checks but strip the quotes for clarity.
		return s[1 : len(s)-1], true
	}
	return s, true
}

// isErrorExpr reports whether the expression's static type is error.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok {
		return false
	}
	return isErrorType(tv.Type)
}

// isNilExpr matches the untyped nil literal.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
}
