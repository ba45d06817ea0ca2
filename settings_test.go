package treesvd

import (
	"go/ast"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/tree-svd/treesvd"

// settingStructs are the structs whose exported fields are public
// settings, by package directory. A field whose type is another struct of
// the same package is a group: its own fields are the settings (a group
// that is itself listed here, like DurableConfig.Config, is counted once).
var settingStructs = map[string][]string{
	".":      {"Config", "DurableConfig"},
	"server": {"Options"},
}

// settingsWithoutCaller are the public settings that no non-test code
// sets, each kept on purpose for the reason given.
var settingsWithoutCaller = map[string]string{
	"treesvd.DurableConfig.StrictRecovery": "the only Open that keeps the log bytes after a corrupt record; without it Open deletes them",
	"treesvd.Config.Shards":                "retired stub named by benchmark/; ROADMAP item 1b deletes it",
	"treesvd.Config.SVDUpdate":             "retired stub named by benchmark/; ROADMAP item 1b deletes it",
	"treesvd.Config.UpdateMaxRel":          "retired stub named by benchmark/; ROADMAP item 1b deletes it",
	"treesvd.Config.UpdateTailFrac":        "retired stub named by benchmark/; ROADMAP item 1b deletes it",
	"treesvd.Config.PushAccel":             "retired stub named by benchmark/; ROADMAP item 1b deletes it",
	"treesvd.DurableConfig.Sync":           "retired stub named by benchmark/; ROADMAP item 1b deletes it",
}

// TestEveryPublicSettingHasACaller fails when a public setting — a field
// of Config, DurableConfig or server.Options, or a client.With* option —
// is set by no non-test Go file, unless settingsWithoutCaller names it
// with a reason. A setting only tests set selects a code path nothing
// runs. It reads every non-test Go file, benchmark/ included; a field
// counts as set by a keyed composite literal of its struct, or by an
// assignment to a selector of its name in a file that imports its
// package (except inside a method of the struct itself, which fills
// defaults rather than choosing a value).
func TestEveryPublicSettingHasACaller(t *testing.T) {
	fields := map[string]map[string][]string{} // import path → struct → setting names
	var settings []string
	for dir, roots := range settingStructs {
		pkg := importPathOf(dir)
		structs := parseStructs(t, dir)
		fields[pkg] = map[string][]string{}
		var walk func(typ string)
		walk = func(typ string) {
			st, ok := structs[typ]
			if !ok {
				t.Fatalf("%s: no struct %s", dir, typ)
			}
			for _, f := range st.Fields.List {
				if id, ok := f.Type.(*ast.Ident); ok && structs[id.Name] != nil {
					if !slices.Contains(roots, id.Name) {
						walk(id.Name)
					}
					continue
				}
				for _, n := range f.Names {
					if n.IsExported() {
						fields[pkg][typ] = append(fields[pkg][typ], n.Name)
						settings = append(settings, path.Base(pkg)+"."+typ+"."+n.Name)
					}
				}
			}
		}
		for _, typ := range roots {
			walk(typ)
		}
	}
	for _, name := range parseOptionFuncs(t, "client") {
		settings = append(settings, "client."+name)
	}

	set := map[string]bool{}
	for _, f := range moduleSources(t) {
		if !f.test {
			markSetters(f.ast, importPathOf(f.dir), fields, set)
		}
	}

	sort.Strings(settings)
	live := 0
	for _, s := range settings {
		reason, allowed := settingsWithoutCaller[s]
		switch {
		case set[s]:
		case allowed:
			t.Logf("%s: no caller, kept: %s", s, reason)
		default:
			t.Errorf("%s: no non-test code sets it; delete it and the path it selects, or name it in settingsWithoutCaller with a reason", s)
		}
		if !strings.Contains(reason, "retired stub") {
			live++
		}
	}
	for s := range settingsWithoutCaller {
		if !slices.Contains(settings, s) {
			t.Errorf("settingsWithoutCaller names %s, which is not a public setting", s)
		}
	}
	t.Logf("%d live public settings", live)
}

// importPathOf maps a directory of this module to its import path.
func importPathOf(dir string) string {
	if dir = filepath.ToSlash(dir); dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// parseStructs returns the struct types the non-test files of dir declare.
func parseStructs(t *testing.T, dir string) map[string]*ast.StructType {
	out := map[string]*ast.StructType{}
	for _, f := range parseNonTest(t, dir) {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					out[ts.Name.Name] = st
				}
			}
			return true
		})
	}
	return out
}

// parseOptionFuncs returns the exported With* funcs the non-test files of
// dir declare.
func parseOptionFuncs(t *testing.T, dir string) []string {
	var out []string
	for _, f := range parseNonTest(t, dir) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				out = append(out, fn.Name.Name)
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no With* options found", dir)
	}
	return out
}

// markSetters records in set every setting file f sets; pkg is f's
// import path and fields maps import path → struct → setting names.
func markSetters(f *ast.File, pkg string, fields map[string]map[string][]string, set map[string]bool) {
	imports := map[string]string{} // local name → import path
	visible := map[string]bool{pkg: true}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
		visible[p] = true
	}
	resolve := func(e ast.Expr) (string, string) {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		switch e := e.(type) {
		case *ast.Ident:
			return pkg, e.Name
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				return imports[x.Name], e.Sel.Name
			}
		}
		return "", ""
	}
	mark := func(p, typ, field string) {
		if slices.Contains(fields[p][typ], field) {
			set[path.Base(p)+"."+typ+"."+field] = true
		}
	}
	for _, decl := range f.Decls {
		recvPkg, recvTyp := "", ""
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && len(fn.Recv.List) == 1 {
			recvPkg, recvTyp = resolve(fn.Recv.List[0].Type)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				p, typ := resolve(n.Type)
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							mark(p, typ, k.Name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					for p, structs := range fields {
						if !visible[p] {
							continue
						}
						for typ := range structs {
							if p != recvPkg || typ != recvTyp {
								mark(p, typ, sel.Sel.Name)
							}
						}
					}
				}
			case *ast.CallExpr:
				if p, name := resolve(n.Fun); p == importPathOf("client") && strings.HasPrefix(name, "With") {
					set["client."+name] = true
				}
			}
			return true
		})
	}
}
