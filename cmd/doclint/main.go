// Command doclint enforces the repository's documentation bar, beyond
// what go vet checks: every package (root, internal/..., cmd/...) must
// carry a package comment, and every exported identifier of the public
// packages (the root, server and client) — types, funcs, methods, consts,
// vars — must have a doc comment. It prints one line per violation and
// exits non-zero if any were found; `make docs` runs it together with go
// vet.
package main

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	problems := 0
	problems += checkPackageDocs(".")
	for _, dir := range []string{".", "server", "client"} {
		problems += checkExported(dir)
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

// goDirs returns every directory under root that contains non-test .go
// files, skipping hidden and example-data directories.
func goDirs(root string) []string {
	seen := map[string]bool{}
	var dirs []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs
}

// parseDir parses one directory's non-test files with comments.
func parseDir(dir string) (map[string]*ast.Package, *token.FileSet, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	return pkgs, fset, err
}

// checkPackageDocs requires a package comment in every package under
// root.
func checkPackageDocs(root string) int {
	problems := 0
	for _, dir := range goDirs(root) {
		pkgs, _, err := parseDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
			problems++
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				fmt.Fprintf(os.Stderr, "doclint: package %s (%s) has no package comment\n", name, dir)
				problems++
			}
		}
	}
	return problems
}

// checkExported requires a doc comment on every exported identifier of
// the package in dir: types, their exported methods, funcs, and every
// exported const/var (directly or via a documented group).
func checkExported(dir string) int {
	pkgs, fset, err := parseDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	problems := 0
	for _, pkg := range pkgs {
		d := doc.New(pkg, "./", 0)
		report := func(pos token.Pos, kind, name string) {
			fmt.Fprintf(os.Stderr, "doclint: %s: exported %s %s has no doc comment\n",
				fset.Position(pos), kind, name)
			problems++
		}
		values := func(kind string, vs []*doc.Value) {
			for _, v := range vs {
				if strings.TrimSpace(v.Doc) != "" {
					continue
				}
				// No group doc: accept a doc comment on the individual
				// spec declaring each exported name instead.
				for _, spec := range v.Decl.Specs {
					vspec, ok := spec.(*ast.ValueSpec)
					if !ok || (vspec.Doc != nil && strings.TrimSpace(vspec.Doc.Text()) != "") {
						continue
					}
					for _, ident := range vspec.Names {
						if ast.IsExported(ident.Name) {
							report(vspec.Pos(), kind, ident.Name)
							break
						}
					}
				}
			}
		}
		values("const", d.Consts)
		values("var", d.Vars)
		for _, f := range d.Funcs {
			if ast.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
				report(f.Decl.Pos(), "func", f.Name)
			}
		}
		for _, t := range d.Types {
			if ast.IsExported(t.Name) && strings.TrimSpace(t.Doc) == "" {
				report(t.Decl.Pos(), "type", t.Name)
			}
			values("const", t.Consts)
			values("var", t.Vars)
			for _, f := range t.Funcs {
				if ast.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
					report(f.Decl.Pos(), "func", f.Name)
				}
			}
			for _, m := range t.Methods {
				if ast.IsExported(m.Name) && strings.TrimSpace(m.Doc) == "" {
					report(m.Decl.Pos(), "method", t.Name+"."+m.Name)
				}
			}
		}
	}
	return problems
}
