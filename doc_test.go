package gemini

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedDocs is the godoc contract of the library's public packages:
// the package clause and every exported symbol godoc shows carry a prose doc
// comment. A grouped const or var is covered by its block's comment, or else
// by a comment on each spec. Exactly one file of a package has a package
// comment, starting "Package <name> ": godoc merges every comment put directly
// above a package clause into the package doc.
func TestExportedDocs(t *testing.T) {
	for _, dir := range []string{"dse", "sa", "eval", "serve", "fleet", "intake", "atomicfile"} {
		fset := token.NewFileSet()
		paths, _ := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		var files []*ast.File
		var pkgDocs []string // the files with a package comment
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			if f.Doc != nil {
				pkgDocs = append(pkgDocs, path)
				if want := "Package " + f.Name.Name + " "; !strings.HasPrefix(f.Doc.Text(), want) {
					t.Errorf("%s: package comment does not start with %q", path, want)
				}
			}
		}
		if len(pkgDocs) != 1 {
			t.Errorf("%s: package comments in %v, want exactly one file's", dir, pkgDocs)
		}
		p, err := doc.NewFromFiles(fset, files, "gemini/internal/"+dir)
		if err != nil {
			t.Fatal(err)
		}
		check := func(kind, name, text string) {
			if strings.TrimSpace(text) == "" {
				t.Errorf("%s: %s %s has no doc comment", dir, kind, name)
			}
		}
		values := func(vs []*doc.Value) {
			for _, v := range vs {
				for _, spec := range v.Decl.Specs {
					s := spec.(*ast.ValueSpec)
					check(v.Decl.Tok.String(), s.Names[0].Name, v.Doc+s.Doc.Text()+s.Comment.Text())
				}
			}
		}
		funcs := func(fs []*doc.Func) {
			for _, f := range fs {
				check("func", strings.TrimPrefix(f.Recv+"."+f.Name, "."), f.Doc)
			}
		}
		check("package", p.Name, p.Doc)
		values(p.Consts)
		values(p.Vars)
		funcs(p.Funcs)
		for _, typ := range p.Types {
			check("type", typ.Name, typ.Doc)
			values(typ.Consts)
			values(typ.Vars)
			funcs(typ.Funcs)
			funcs(typ.Methods)
		}
	}
}
