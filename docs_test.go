package treesvd

import (
	"go/ast"
	"go/doc"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/obs"
)

// The documents a reader follows to build, test and run the repository.
// CHANGES.md and EXPERIMENTS.md are history: they may name what is gone.
var liveDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	makefileTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
	fencedBlock    = regexp.MustCompile("(?s)```.*?```")
	codeSpan       = regexp.MustCompile("`[^`]+`")
	makeInvocation = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	programPath    = regexp.MustCompile(`\b(?:cmd|examples)/[a-z][a-z0-9_]*`)
	// settingRef matches Config.X, DurableConfig.X and server.Options.X
	// (treesvd. optional), and the X.{A, B} list form.
	settingRef = regexp.MustCompile(`(?:^|[^\w.])((?:treesvd\.)?(?:Config|DurableConfig)|server\.Options)\.(\{[^}]*\}|[A-Z]\w*)`)
)

// The most lines README.md and DESIGN.md may hold.
const (
	readmeBudget = 350
	designBudget = 800
)

// TestDocsNameLiveTargets fails when a live document tells the reader to
// run a make target the Makefile does not define, names a program under
// cmd/ or examples/ that does not exist, or names in backticks a field of
// Config, DurableConfig or server.Options that the code does not declare.
func TestDocsNameLiveTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	declared := map[string]bool{} // "Config.Dim", "server.Options.MaxBatchEvents", ...
	for dir, prefix := range map[string]string{".": "", "server": "server."} {
		for name, st := range parseStructs(t, dir) {
			for _, f := range st.Fields.List {
				for _, n := range f.Names {
					declared[prefix+name+"."+n.Name] = true
				}
			}
		}
	}
	for _, doc := range liveDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		// Backticked text: fenced blocks, then the inline spans between them.
		code := fencedBlock.FindAllString(text, -1)
		code = append(code, codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1)...)
		for _, span := range code {
			for _, m := range makeInvocation.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: %q names make target %q, which the Makefile does not define", doc, strings.Join(strings.Fields(span), " "), m[1])
				}
			}
			for _, m := range settingRef.FindAllStringSubmatch(span, -1) {
				typ := strings.TrimPrefix(m[1], "treesvd.")
				for _, field := range strings.Split(strings.Trim(m[2], "{}"), ",") {
					if field = strings.TrimSpace(field); !declared[typ+"."+field] {
						t.Errorf("%s: names %s.%s, a field the code does not declare", doc, m[1], field)
					}
				}
			}
		}
		for _, m := range programPath.FindAllString(text, -1) {
			if fi, err := os.Stat(m); err != nil || !fi.IsDir() {
				t.Errorf("%s: names %s, which is not a directory", doc, m)
			}
		}
	}
}

// stageList matches a doc's list of the stage table's rows: the label key
// in backticks, "∈", then the names as code spans, braced or not.
var stageList = regexp.MustCompile("`treesvd_stage`\\s*∈\\s*\\{?((?:\\s*`[a-z0-9_.]+`,?)+)")

// TestDocsListTheStageTable fails when a live document's list of stages
// (`treesvd_stage` ∈ {…}) names a stage the stage table lacks, omits one
// it has, or orders them differently, and when README or DESIGN holds no
// such list: the table in internal/obs is the one place the names are
// spelled.
func TestDocsListTheStageTable(t *testing.T) {
	var table []string
	for s := range obs.NumStages {
		table = append(table, s.String())
	}
	for _, name := range liveDocs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lists := stageList.FindAllStringSubmatch(string(b), -1)
		if len(lists) == 0 && (name == "README.md" || name == "DESIGN.md") {
			t.Errorf("%s: no `treesvd_stage` ∈ {…} list of the stage table", name)
		}
		for _, m := range lists {
			var got []string
			for _, span := range codeSpan.FindAllString(m[1], -1) {
				got = append(got, strings.Trim(span, "`"))
			}
			if !slices.Equal(got, table) {
				t.Errorf("%s lists the stages %v, want the table's %v", name, got, table)
			}
		}
	}
}

// TestReadmeWithinBudget fails when README.md grows past readmeBudget
// lines: numbers an artifact or EXPERIMENTS.md holds belong there.
func TestReadmeWithinBudget(t *testing.T) { requireLineBudget(t, "README.md", readmeBudget) }

// TestDesignWithinBudget fails when DESIGN.md grows past designBudget
// lines: it states the current design once, and per-change measurements
// belong in CHANGES.md, EXPERIMENTS.md or a BENCH_*.json artifact.
func TestDesignWithinBudget(t *testing.T) { requireLineBudget(t, "DESIGN.md", designBudget) }

func requireLineBudget(t *testing.T, name string, budget int) {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > budget {
		t.Errorf("%s has %d lines, budget %d", name, n, budget)
	}
}

// TestEveryPackageHasAComment fails on a directory of non-test Go files
// (hidden and testdata directories aside) none of which carries a
// package comment.
func TestEveryPackageHasAComment(t *testing.T) {
	documented := map[string]bool{}
	for _, f := range moduleSources(t) {
		if !f.test {
			documented[f.dir] = documented[f.dir] || (f.ast.Doc != nil && strings.TrimSpace(f.ast.Doc.Text()) != "")
		}
	}
	for dir, ok := range documented {
		if !ok {
			t.Errorf("package in %s has no package comment", dir)
		}
	}
}

// TestPublicExportsHaveDocComments fails on an exported type, func,
// method, const or var of the public packages (the root, server and
// client) without a doc comment. A const or var passes with a doc
// comment on its group or on its own spec.
func TestPublicExportsHaveDocComments(t *testing.T) {
	for _, dir := range []string{".", "server", "client"} {
		// PreserveAST: the census type-checks these same shared ASTs.
		pkg, err := doc.NewFromFiles(srcFset, parseNonTest(t, dir), dir, doc.PreserveAST)
		if err != nil {
			t.Fatal(err)
		}
		report := func(pos token.Pos, kind, name string) {
			t.Errorf("%s: exported %s %s has no doc comment", srcFset.Position(pos), kind, name)
		}
		values := func(kind string, vs []*doc.Value) {
			for _, v := range vs {
				if strings.TrimSpace(v.Doc) != "" {
					continue
				}
				for _, s := range v.Decl.Specs {
					spec := s.(*ast.ValueSpec)
					if spec.Doc != nil && strings.TrimSpace(spec.Doc.Text()) != "" {
						continue
					}
					for _, id := range spec.Names {
						if id.IsExported() {
							report(spec.Pos(), kind, id.Name)
							break
						}
					}
				}
			}
		}
		funcs := func(kind, prefix string, fns []*doc.Func) {
			for _, f := range fns {
				if ast.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
					report(f.Decl.Pos(), kind, prefix+f.Name)
				}
			}
		}
		values("const", pkg.Consts)
		values("var", pkg.Vars)
		funcs("func", "", pkg.Funcs)
		for _, typ := range pkg.Types {
			if ast.IsExported(typ.Name) && strings.TrimSpace(typ.Doc) == "" {
				report(typ.Decl.Pos(), "type", typ.Name)
			}
			values("const", typ.Consts)
			values("var", typ.Vars)
			funcs("func", "", typ.Funcs)
			funcs("method", typ.Name+".", typ.Methods)
		}
	}
}
