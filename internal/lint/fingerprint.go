// The fingerprintcomplete analyzer: every field of a fingerprinted struct
// must be either folded into its fingerprint function or named — with a
// reason — on an explicit exclusion list. Adding a behavior-changing field
// to dse.Options without deciding its checkpoint-compatibility story was
// the recurring PR 5/6 hazard; this check turns the omission into a build
// break instead of a silent cross-restart cache aliasing bug.
//
// Contract: a function carrying `//gemini:fingerprint-of T` in its doc
// comment is T's fingerprint (or resolution) function. The analyzer
// computes the set of T's fields the function reads — directly through any
// parameter or receiver of type T/*T, and transitively through
// same-package functions the parameter is passed to — and compares it
// against T's declared fields minus the exclusion list: a package-level
// `map[string]string{field: reason}` variable carrying
// `//gemini:fingerprint-exclude T`. Uncovered fields, stale exclusions and
// contradictory (read AND excluded) entries are all reported.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FingerprintAnalyzer enforces the fingerprint-completeness contract on
// every //gemini:fingerprint-of function.
var FingerprintAnalyzer = &Analyzer{
	Name: "fingerprintcomplete",
	Doc: "every field of a //gemini:fingerprint-of T struct must be read by " +
		"the fingerprint function or listed, with a reason, in the package's " +
		"//gemini:fingerprint-exclude T map",
	Run: runFingerprint,
}

func runFingerprint(pass *Pass) error {
	for _, fd := range funcDecls(pass.Pkg) {
		typeName, ok := hasDirective(fd.Doc, "fingerprint-of")
		if !ok {
			continue
		}
		if typeName == "" {
			pass.Reportf(fd.Pos(), "gemini:fingerprint-of needs a type name")
			continue
		}
		checkFingerprint(pass, fd, typeName)
	}
	return nil
}

func checkFingerprint(pass *Pass, fd *ast.FuncDecl, typeName string) {
	strct, named := lookupStruct(pass.Pkg, typeName)
	if strct == nil {
		pass.Reportf(fd.Pos(), "gemini:fingerprint-of %s: no struct type %s in package %s", typeName, typeName, pass.Pkg.Types.Name())
		return
	}
	fields := map[string]bool{}
	for i := 0; i < strct.NumFields(); i++ {
		fields[strct.Field(i).Name()] = true
	}

	covered := map[string]bool{}
	walker := &fieldReadWalker{pass: pass, named: named, seen: map[*ast.FuncDecl]bool{}}
	walker.collect(fd, covered)

	excluded, exclPos := exclusionList(pass, typeName)
	if exclPos == 0 {
		exclPos = fd.Pos()
	}

	var missing, stale, contradictory []string
	for f := range fields {
		if !covered[f] && excluded[f] == "" {
			missing = append(missing, f)
		}
	}
	for f := range excluded {
		if !fields[f] {
			stale = append(stale, f)
		} else if covered[f] {
			contradictory = append(contradictory, f)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	sort.Strings(contradictory)
	if len(missing) > 0 {
		pass.Reportf(fd.Pos(), "fingerprint of %s does not cover field(s) %s: fold them into %s or add them to the //gemini:fingerprint-exclude %s list with a checkpoint-compat reason",
			typeName, strings.Join(missing, ", "), fd.Name.Name, typeName)
	}
	for _, f := range stale {
		pass.Reportf(exclPos, "fingerprint exclusion list for %s names %q, which is not a field of %s (stale entry)", typeName, f, typeName)
	}
	for _, f := range contradictory {
		pass.Reportf(exclPos, "field %s.%s is both read by the fingerprint function and excluded: drop the stale exclusion", typeName, f)
	}
}

// lookupStruct resolves a package-scope struct type by name.
func lookupStruct(pkg *Package, name string) (*types.Struct, *types.Named) {
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		return nil, nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil, nil
	}
	strct, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return strct, named
}

// exclusionList finds the package's //gemini:fingerprint-exclude map for
// typeName and returns field -> reason. Entries with an empty reason are
// reported: the list's whole point is recording the compat decision.
func exclusionList(pass *Pass, typeName string) (map[string]string, token.Pos) {
	out := map[string]string{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			v, ok := hasDirective(gd.Doc, "fingerprint-exclude")
			if !ok || v != typeName {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					lit, ok := val.(*ast.CompositeLit)
					if !ok {
						pass.Reportf(val.Pos(), "gemini:fingerprint-exclude %s must be a map[string]string literal of field -> reason", typeName)
						continue
					}
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, kerr := stringLit(pass, kv.Key)
						reason, rerr := stringLit(pass, kv.Value)
						if kerr || rerr {
							continue
						}
						if reason == "" {
							pass.Reportf(kv.Pos(), "fingerprint exclusion for %s.%s has no reason: state the checkpoint-compat story", typeName, key)
						}
						out[key] = reason
					}
				}
			}
			return out, gd.Pos()
		}
	}
	return out, 0
}

// stringLit evaluates a constant string expression.
func stringLit(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Pkg.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		pass.Reportf(e.Pos(), "fingerprint exclusion entries must be constant strings")
		return "", true
	}
	s := tv.Value.ExactString()
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	return s, false
}

// fieldReadWalker computes which fields of the target struct a function
// reads through its T-typed parameters or receiver, following same-package
// calls the parameter is forwarded to.
type fieldReadWalker struct {
	pass  *Pass
	named *types.Named
	seen  map[*ast.FuncDecl]bool
}

// collect accumulates field reads of fd into covered.
func (w *fieldReadWalker) collect(fd *ast.FuncDecl, covered map[string]bool) {
	if w.seen[fd] {
		return
	}
	w.seen[fd] = true
	info := w.pass.Pkg.TypesInfo

	params := w.targetParams(fd)
	if len(params) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && params[obj] {
					covered[e.Sel.Name] = true
				}
			}
		case *ast.CallExpr:
			w.follow(e, params, covered)
		}
		return true
	})
}

// targetParams returns the objects of fd's parameters and receiver whose
// type is the target struct (by value or pointer).
func (w *fieldReadWalker) targetParams(fd *ast.FuncDecl) map[types.Object]bool {
	info := w.pass.Pkg.TypesInfo
	out := map[types.Object]bool{}
	add := func(fields []*ast.Field) {
		for _, f := range fields {
			for _, name := range f.Names {
				obj := info.Defs[name]
				if obj != nil && w.isTarget(obj.Type()) {
					out[obj] = true
				}
			}
		}
	}
	if fd.Recv != nil {
		add(fd.Recv.List)
	}
	if fd.Type.Params != nil {
		add(fd.Type.Params.List)
	}
	return out
}

// isTarget reports whether t is the fingerprinted struct, possibly behind
// one pointer.
func (w *fieldReadWalker) isTarget(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == w.named.Obj()
}

// follow recurses into a same-package callee when a target parameter is
// forwarded to it (by value or by address), so a helper that reads a field
// on the fingerprint function's behalf counts as fingerprint coverage.
func (w *fieldReadWalker) follow(call *ast.CallExpr, params map[types.Object]bool, covered map[string]bool) {
	forwards := false
	for _, arg := range call.Args {
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = ast.Unparen(u.X)
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := w.pass.Pkg.TypesInfo.Uses[id]; obj != nil && params[obj] {
				forwards = true
				break
			}
		}
	}
	if !forwards {
		return
	}
	callee := calleeFunc(w.pass.Pkg.TypesInfo, call)
	if callee == nil || callee.Pkg() != w.pass.Pkg.Types {
		return
	}
	if decl := w.declOf(callee); decl != nil {
		w.collect(decl, covered)
	}
}

// declOf finds the AST declaration of a package function.
func (w *fieldReadWalker) declOf(f *types.Func) *ast.FuncDecl {
	for _, fd := range funcDecls(w.pass.Pkg) {
		if obj := w.pass.Pkg.TypesInfo.Defs[fd.Name]; obj == f {
			return fd
		}
	}
	return nil
}
