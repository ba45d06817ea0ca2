package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is a registered runner that may emit several tables.
type Experiment struct {
	ID    string
	Desc  string
	Run   func(Options) []*Table
	Heavy bool // excluded from "all" unless explicitly requested
}

func single(f func(Options) *Table) func(Options) []*Table {
	return func(o Options) []*Table { return []*Table{f(o)} }
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Desc: "Table 1: subset vs global Micro-F1", Run: single(RunTable1)},
		{ID: "fig3", Desc: "Figure 3: NC Micro-F1 + embedding time, all methods", Run: single(RunFig3)},
		{ID: "table4", Desc: "Table 4 + Fig 4: LP precision + embedding time", Run: single(RunTable4)},
		{ID: "exp2", Desc: "Exp 2 (Fig 5, Tables 5-6): SVD framework comparison", Run: single(RunExp2)},
		{ID: "fig5scale", Desc: "Fig 5 scale series: Tree-SVD-S vs FRPCA crossover", Run: single(RunFig5Scale), Heavy: true},
		{ID: "exp3nc", Desc: "Exp 3 (Figs 6-8): NC per snapshot", Run: RunExp3NC, Heavy: true},
		{ID: "exp3lp", Desc: "Exp 3 (Fig 9): LP per snapshot", Run: RunExp3LP, Heavy: true},
		{ID: "exp4", Desc: "Exp 4 (Fig 10): batch updates, NC", Run: single(RunExp4)},
		{ID: "table7", Desc: "Exp 4 (Table 7): batch updates, LP", Run: single(RunExp4LP)},
		{ID: "exp5", Desc: "Exp 5 (Fig 9 Twitter + Table 8): scalability", Run: RunExp5, Heavy: true},
		{ID: "fig11", Desc: "Figure 11: varying b, HSVD vs Tree-SVD-S", Run: single(RunFig11)},
		{ID: "fig12", Desc: "Figure 12: varying r_max", Run: single(RunFig12)},
		{ID: "fig13", Desc: "Figure 13: varying delta", Run: single(RunFig13)},
		{ID: "fig14", Desc: "Figure 14: update-size cut-off", Run: single(RunFig14)},
		{ID: "ablations", Desc: "Ablations: lazy trigger", Run: single(RunAblations)},
		{ID: "futurework", Desc: "Conclusion (§7): coherent vs random subsets", Run: single(RunFutureWork)},
		{ID: "churnstress", Desc: "Correctness harness: audited dynamic path under adversarial churn", Run: single(RunChurnStress)},
	}
}

// Lookup resolves an experiment id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// RunAndPrint executes one experiment and prints its tables.
func RunAndPrint(id string, o Options, w io.Writer) error {
	e, err := Lookup(id)
	if err != nil {
		return err
	}
	for _, t := range e.Run(o) {
		t.Fprint(w)
	}
	return nil
}
