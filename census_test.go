package treesvd

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// srcFile is one Go file of the repository, benchmark/ included.
type srcFile struct {
	path string // relative to the repository root
	dir  string // its package directory, "." for the root
	ast  *ast.File
	test bool
	// built reports whether the host's build constraints keep the file
	// (kernels_other.go is left out on amd64, for one).
	built bool
}

var (
	srcOnce sync.Once
	srcFset = token.NewFileSet()
	srcAll  []*srcFile
	srcErr  error
)

// moduleSources parses every Go file of the repository once, for both
// census tests (and the doc tests' struct lookups): one walk, one parser.
func moduleSources(t *testing.T) []*srcFile {
	t.Helper()
	srcOnce.Do(func() {
		srcErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(srcFset, p, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			dir := filepath.Dir(p)
			built, err := build.Default.MatchFile(dir, filepath.Base(p))
			if err != nil {
				return err
			}
			srcAll = append(srcAll, &srcFile{path: p, dir: dir, ast: f, test: strings.HasSuffix(p, "_test.go"), built: built})
			return nil
		})
	})
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	return srcAll
}

// parseNonTest returns the non-test files of dir, whatever their build
// constraints.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	var files []*ast.File
	for _, f := range moduleSources(t) {
		if f.dir == filepath.Clean(dir) && !f.test {
			files = append(files, f.ast)
		}
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}
	return files
}

// The reasons an export may stay without a non-test caller. Each entry of
// exportsWithoutCaller gives one of the first three, or a reason of its
// own for the public API.
const (
	testInfra = "test-infrastructure package: only tests inject faults"
	reference = "reference implementation that tests compare the fast path against"
	shared    = "test helper shared by the tests of two or more packages"
)

// exportsWithoutCaller are the exports of root, server, client and
// internal/ that no non-test code uses, each kept on purpose for the
// reason given. A helper only one package's tests use belongs in that
// package's _test.go files instead (export_test.go for the package's own
// unexported fields).
var exportsWithoutCaller = map[string]string{
	"internal/faultfs.Wrap":               testInfra,
	"internal/faultfs.FS.Clear":           testInfra,
	"internal/faultfs.FS.Crashed":         testInfra,
	"internal/faultfs.FS.Fired":           testInfra,
	"internal/faultfs.FS.Full":            testInfra,
	"internal/faultfs.FS.Ops":             testInfra,
	"internal/netfault.Wrap":              testInfra,
	"internal/netfault.Listener.Accepted": testInfra,
	"internal/netfault.Listener.Faulted":  testInfra,

	"internal/check.Optimality":     reference,
	"internal/check.PPRSubsetExact": reference,
	"internal/core.Tree.Certify":    reference,
	"internal/linalg.SymEigW":       reference,

	"internal/check.Snapshot":               shared,
	"internal/linalg.Add":                   shared,
	"internal/linalg.MaxAbsDiff":            shared,
	"internal/linalg.Sub":                   shared,
	"internal/linalg.SVDResult.Reconstruct": shared,
	"internal/sparse.DynRow.NNZ":            shared,
	"internal/sparse.DynRow.ToDense":        shared,

	"treesvd.CreateWithFS": "the crash tests' seam for a fault-injecting filesystem (root, server and internal/check); wal.FS is internal, so no importer can call it",
	"treesvd.OpenWithFS":   "the crash tests' seam for a fault-injecting filesystem, as CreateWithFS",

	"treesvd.FactorizeMatrix":         "the paper's \"not limited to subset embedding\" mode: a truncated SVD of any sparse matrix",
	"treesvd.NewSparseMatrix":         "FactorizeMatrix's input; its only constructor",
	"treesvd.SparseMatrix.Set":        "FactorizeMatrix's input; the only way to fill it",
	"treesvd.SparseMatrix.Dims":       "FactorizeMatrix's input; its shape",
	"treesvd.SVDResult.Rank":          "FactorizeMatrix's output; the rank it kept",
	"treesvd.Insert":                  "an event type every importer's Event needs",
	"treesvd.Delete":                  "an event type every importer's Event needs",
	"treesvd.Load":                    "Save's inverse on an io.Reader (cmd/ uses the file forms)",
	"treesvd.Embedder.Save":           "the stream form of SaveFile, for a caller-owned writer",
	"treesvd.Embedder.Rebuild":        "the paper's Tree-SVD-S fallback after massive changes (Theorem 3.7)",
	"treesvd.Embedder.Version":        "the one-call form of Snapshot().Version() a poller needs",
	"treesvd.Embedder.RightEmbedding": "the one-call form of Snapshot().RightEmbedding()",
	"treesvd.Snapshot.Spectrum":       "the root's singular values, for a caller choosing d",
	"treesvd.StageLabel":              "the pprof label key a CPU profile is filtered by",
	"treesvd.TraceKind":               "the type a trace hook switches on",
	"treesvd.TraceBatchStart":         "a trace kind a hook switches on",
	"treesvd.TraceRebuild":            "a trace kind a hook switches on",

	"server.Server.Serve": "takes a caller-owned listener (fault-injecting, TLS-terminated, inherited)",

	"client.Client.Version":           "GET /v1/version: the client mirrors every read endpoint",
	"client.Client.Embedding":         "GET /v1/embedding: the client mirrors every read endpoint",
	"client.Client.EmbeddingRow":      "GET /v1/embedding?node=: the client mirrors every read endpoint",
	"client.Client.RightEmbedding":    "GET /v1/rightembedding: the client mirrors every read endpoint",
	"client.Client.RightEmbeddingRow": "GET /v1/rightembedding?node=: the client mirrors every read endpoint",
}

// TestEveryExportHasACaller fails on an exported func, method, type, var
// or const of a non-main package of the module that no non-test Go file
// uses, unless exportsWithoutCaller names it with a reason: code only
// tests run counts in `make lines` and is kept in step for nothing. It
// type-checks the module and benchmark/ (go/types over the parsed
// sources, the standard library from its export data). A use counts from
// any non-test file, benchmark/ and cmd/ included, and from files the
// host's build constraints leave out, but not from the export's own
// declaration (its receiver, or a recursive call). A method passes when
// it implements an interface the module or the standard library declares
// (error, fmt.Stringer, gob.GobEncoder, http.Handler, wal.File, …),
// since the call goes through the interface.
func TestEveryExportHasACaller(t *testing.T) {
	c := newCensus(t)
	inTests := map[string]bool{} // every identifier a test file names
	for _, f := range moduleSources(t) {
		if f.test {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					inTests[id.Name] = true
				}
				return true
			})
		}
	}
	var tiers [2]int // internal, public
	for _, key := range c.exports() {
		if strings.HasPrefix(key, "internal/") {
			tiers[0]++
		} else {
			tiers[1]++
		}
		reason, allowed := exportsWithoutCaller[key]
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case c.used[key] && allowed:
			t.Errorf("exportsWithoutCaller names %s, which now has a non-test caller; drop the entry", key)
		case c.used[key]:
		case !allowed:
			t.Errorf("%s: no non-test code uses it; delete it, move it into the tests that use it, or name it in exportsWithoutCaller with a reason", key)
		case !inTests[name]:
			t.Errorf("%s: no code uses it, not even a test; delete it and its exportsWithoutCaller entry", key)
		default:
			t.Logf("%s: no non-test caller, kept: %s", key, reason)
		}
	}
	for key := range exportsWithoutCaller {
		if !c.declared[key] {
			t.Errorf("exportsWithoutCaller names %s, which is not an export", key)
		}
	}
	t.Logf("%d exports under internal/, %d in the public packages", tiers[0], tiers[1])
}

// TestCensusCountsExcludedFiles fails when the census stops counting a
// use from a file the host's build constraints leave out:
// kernels_other.go, the portable twin of the amd64 kernels, is the only
// non-test caller of dotGeneric on amd64.
func TestCensusCountsExcludedFiles(t *testing.T) {
	c := newCensus(t)
	other := filepath.FromSlash("internal/linalg/kernels_other.go")
	for _, f := range moduleSources(t) {
		if f.path == other && f.built != (build.Default.GOARCH != "amd64") {
			t.Fatalf("%s: built=%v on GOARCH %s", other, f.built, build.Default.GOARCH)
		}
	}
	if !c.used["internal/linalg.dotGeneric"] {
		t.Errorf("dotGeneric: no use found; %s calls it", other)
	}
}

// census is the type-checked module: the exports of its non-main
// packages and every package-level object or method some non-test file
// uses, each keyed "dir.Name" or "dir.Type.Method" ("treesvd" is the
// root's dir).
type census struct {
	declared map[string]bool
	used     map[string]bool
}

var (
	censusOnce sync.Once
	censusVal  *census
	censusErr  error
)

func newCensus(t *testing.T) *census {
	t.Helper()
	files := moduleSources(t)
	censusOnce.Do(func() { censusVal, censusErr = checkModule(files) })
	if censusErr != nil {
		t.Fatal(censusErr)
	}
	return censusVal
}

// exports returns the keys of every audited export, sorted.
func (c *census) exports() []string {
	var keys []string
	for k := range c.declared {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// objKey names a package-level object or a concrete method of this
// module; "" for anything else.
func objKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		if o.IsField() {
			return ""
		}
	case nil:
		return ""
	}
	if obj.Pkg() == nil {
		return ""
	}
	p := obj.Pkg().Path()
	dir := strings.TrimPrefix(p, modulePath+"/")
	switch {
	case p == modulePath:
		dir = "treesvd"
	case dir == p:
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := recvNamed(recv.Type())
			if named == nil || types.IsInterface(named) {
				return ""
			}
			return dir + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return dir + "." + obj.Name()
}

// recvNamed returns the named type of a method receiver, through one
// pointer.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkModule type-checks the non-test files of every package of the
// repository, benchmark/ included, and records what they use. A package
// with files the host's build constraints leave out is checked a second
// time under the other of amd64 and arm64, so those files count as
// callers too.
func checkModule(files []*srcFile) (*census, error) {
	alt := build.Default
	alt.GOARCH = "arm64"
	if build.Default.GOARCH == "arm64" {
		alt.GOARCH = "amd64"
	}
	byDir := map[string][]*srcFile{}
	for _, f := range files {
		if !f.test {
			byDir[f.dir] = append(byDir[f.dir], f)
		}
	}
	c := &census{declared: map[string]bool{}, used: map[string]bool{}}
	std := importer.ForCompiler(srcFset, "gc", nil)
	pkgs := map[string]*types.Package{}
	var check func(dir string, keep func(*srcFile) (bool, error)) (*types.Package, error)
	var imp importerFunc = func(p string) (*types.Package, error) {
		if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
			return std.Import(p)
		}
		dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/"))
		if dir == "" {
			dir = "."
		}
		if pkg := pkgs[dir]; pkg != nil {
			return pkg, nil
		}
		pkg, err := check(dir, func(f *srcFile) (bool, error) { return f.built, nil })
		pkgs[dir] = pkg
		return pkg, err
	}
	check = func(dir string, keep func(*srcFile) (bool, error)) (*types.Package, error) {
		var asts []*ast.File
		for _, f := range byDir[dir] {
			ok, err := keep(f)
			if err != nil {
				return nil, err
			}
			if ok {
				asts = append(asts, f.ast)
			}
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(importPathOf(dir), srcFset, asts, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", dir, err)
		}
		for _, f := range asts {
			c.recordUses(f, info)
		}
		return pkg, nil
	}
	var dirs []string
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		pkg, err := imp(importPathOf(dir))
		if err != nil {
			return nil, err
		}
		if pkg.Name() != "main" {
			c.declare(pkg)
		}
		if slices.ContainsFunc(byDir[dir], func(f *srcFile) bool { return !f.built }) {
			_, err := check(dir, func(f *srcFile) (bool, error) { return alt.MatchFile(f.dir, filepath.Base(f.path)) })
			if err != nil {
				return nil, err
			}
		}
	}
	c.passInterfaceMethods(pkgs)
	return c, nil
}

// declare records the exports of pkg: its exported package-level names
// and the exported methods of its named types.
func (c *census) declare(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			c.declared[objKey(obj)] = true
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					c.declared[objKey(m)] = true
				}
			}
		}
	}
}

// recordUses marks every module object f uses, except where the use is
// the object's own declaration: a func's body, or a method's receiver and
// body for the method and its type.
func (c *census) recordUses(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		var self []string
		if fn, ok := d.(*ast.FuncDecl); ok {
			obj := info.Defs[fn.Name]
			self = append(self, objKey(obj))
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if named := recvNamed(recv.Type()); named != nil {
					self = append(self, objKey(named.Obj()))
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if key := objKey(info.Uses[id]); key != "" && !slices.Contains(self, key) {
					c.used[key] = true
				}
			}
			return true
		})
	}
}

// errorsUnwrap is the method set errors.Is, errors.As and errors.Unwrap
// assert inside their bodies, which export data does not carry.
var errorsUnwrap = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
}()

// passInterfaceMethods marks as used every exported method whose type
// implements an interface that declares it: the interfaces of the module,
// of every standard-library package it reaches, error, and Unwrap. A call through the interface names the interface's
// method, not the concrete one.
func (c *census) passInterfaceMethods(pkgs map[string]*types.Package) {
	ifaces := []*types.Interface{errorsUnwrap, types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				key := objKey(m)
				if !m.Exported() || c.used[key] {
					continue
				}
				for _, it := range ifaces {
					if declaresMethod(it, m.Name()) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
						c.used[key] = true
						break
					}
				}
			}
		}
	}
}

func declaresMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
