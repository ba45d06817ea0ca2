package treesvd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneHomePerByteFormat fails when a second copy of a persisted byte
// format grows back outside the package that owns it: the integrity
// footer's magic "TSV2" belongs to internal/wire, and a CRC32 table to
// internal/wal (segments, checkpoints) and internal/wire (the footer).
// It reads the non-test Go files outside benchmark/, which is its own
// module.
func TestOneHomePerByteFormat(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING && n.Value == `"TSV2"` && dir != "internal/wire" {
					t.Errorf("%s: the footer magic \"TSV2\" outside internal/wire; use wire.Footer and wire.SplitFooter", path)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "crc32" && n.Sel.Name == "MakeTable" &&
					dir != "internal/wal" && dir != "internal/wire" {
					t.Errorf("%s: crc32.MakeTable outside internal/wal and internal/wire; checksum through their formats", path)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneEntryPointPerKernel fails when a kernel package grows a second
// name for one operation: an exported func or method N beside an NW on
// the same receiver, the serial wrapper that only calls its
// worker-budgeted sibling with one worker. It reads the non-test Go files
// of internal/linalg and internal/sparse.
func TestOneEntryPointPerKernel(t *testing.T) {
	for _, dir := range []string{"internal/linalg", "internal/sparse"} {
		names := map[string]bool{} // receiver type + "." + name; "" for funcs
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				recv := ""
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					typ := fn.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						recv = id.Name
					}
				}
				names[recv+"."+fn.Name.Name] = true
			}
		}
		if len(names) == 0 {
			t.Fatalf("%s: no exported funcs found", dir)
		}
		for key := range names {
			if names[key+"W"] {
				n := strings.TrimPrefix(key, ".")
				t.Errorf("%s: both %s and %sW are declared; keep only %sW and pass 1 for a serial call", dir, n, n, n)
			}
		}
	}
}
