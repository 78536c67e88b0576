package gemini

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseModule parses every .go file of the module, test files included only
// when tests is set, skipping testdata and hidden directories.
func parseModule(t *testing.T, tests bool) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// module is the module path, the prefix of every import of its packages.
const module = "gemini"

// interfaceMethods satisfy standard-library interfaces (error, fmt.Stringer,
// sort.Interface, http.Handler, http.RoundTripper), so the code that calls
// them is the standard library's.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "Len": true, "Less": true,
	"Swap": true, "ServeHTTP": true, "RoundTrip": true,
}

// unreferencedAllowed names the exported functions and methods under
// internal/ that no non-test code calls but that stay, each with its reason,
// keyed "package.Func" or "package.Type.Method".
var unreferencedAllowed = map[string]string{
	"eval.Evaluator.EvaluateAnalysis": "test oracle: evaluates core.Analyze's sorted parse, held against EvaluateGroup",
	"eval.Evaluator.SummarizeGroup":   "test oracle: the from-scratch summary delta summaries are held against",
	"eval.GroupDelta.Computed":        "test oracle: reads the summary the last delta evaluation computed",
	"dnn.Synth":                       "test oracle: the seeded random graphs property tests draw",
	"dnn.DefaultSynthParams":          "test oracle: dnn.Synth's default generator bounds",
	"sa.Result.Improvement":           "test oracle: InitCost / Cost of an annealing run",
	"dnn.Graph.TotalWeights":          "public API through the gemini.Model alias",
}

// TestInternalExportsReferenced fails on an exported function or method under
// internal/ that no non-test Go file of the module, bench/ included, names
// outside its own declaration: one that only tests call is test code and
// belongs in a _test.go file. A package-level function F counts as named only
// by a selector pkg.F whose pkg imports the declaring package, or by a bare F
// in a file of that package; a method counts as named by any identifier
// sharing its name.
func TestInternalExportsReferenced(t *testing.T) {
	fset, files := parseModule(t, false)
	pkgName := map[string]string{} // module directory -> package name
	for p, f := range files {
		pkgName[path.Dir(p)] = f.Name.Name
	}
	uses := map[string][]token.Pos{} // every identifier, by name
	refs := map[string][]token.Pos{} // "dir.F": references to F of the package in dir
	type decl struct {
		key, dir string
		node     *ast.FuncDecl
	}
	var decls []decl
	for p, f := range files {
		dir := path.Dir(p)
		imports := map[string]string{} // local name -> module directory
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			d, ok := strings.CutPrefix(ip, module+"/")
			if !ok {
				continue
			}
			name := pkgName[d]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = d
		}
		notBare := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				notBare[n.Name] = true
			case *ast.SelectorExpr:
				notBare[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					k := imports[x.Name] + "." + n.Sel.Name
					refs[k] = append(refs[k], n.Sel.Pos())
				}
			case *ast.Ident:
				uses[n.Name] = append(uses[n.Name], n.Pos())
				if k := dir + "." + n.Name; !notBare[n] {
					refs[k] = append(refs[k], n.Pos())
				}
			}
			return true
		})
		if !strings.HasPrefix(p, "internal/") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				if interfaceMethods[fd.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, dir, fd})
		}
	}
	unreferenced := map[string]bool{}
	for _, d := range decls {
		outside := func(p token.Pos) bool { return p < d.node.Pos() || p >= d.node.End() }
		named := uses[d.node.Name.Name]
		if d.node.Recv == nil {
			named = refs[d.dir+"."+d.node.Name.Name]
		}
		if !slices.ContainsFunc(named, outside) {
			unreferenced[d.key] = true
			if _, ok := unreferencedAllowed[d.key]; !ok {
				t.Errorf("%s: %s is called by tests alone; move it into them or delete it",
					fset.Position(d.node.Pos()), d.key)
			}
		}
	}
	for key := range unreferencedAllowed {
		if !unreferenced[key] {
			t.Errorf("allowlist entry %s names no unreferenced exported function; drop it", key)
		}
	}
}

// recvType returns the type name of a method receiver expression.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// mdPath matches a Markdown file path in prose.
var mdPath = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestCommentMarkdownPathsExist fails on a Go comment that cites a Markdown
// file which exists neither at that path from the module root nor from the
// citing file's directory.
func TestCommentMarkdownPathsExist(t *testing.T) {
	fset, files := parseModule(t, true)
	for path, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, md := range mdPath.FindAllString(c.Text, -1) {
					if !exists(md) && !exists(filepath.Join(filepath.Dir(path), md)) {
						t.Errorf("%s: comment cites %s, which does not exist", fset.Position(c.Pos()), md)
					}
				}
			}
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
