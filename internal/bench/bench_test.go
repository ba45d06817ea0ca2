package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRegistryComplete pins the experiment inventory, in order, to the
// Id column of DESIGN.md §3's one table.
func TestRegistryComplete(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(design), "\n## 3. ")
	sec, _, _ = strings.Cut(sec, "\n## ")
	_, table, _ := strings.Cut(sec, "\n|")
	var want []string
	for _, line := range strings.Split("|"+table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break // the table ends at its first non-row line
		}
		if id, ok := strings.CutPrefix(line, "| `"); ok {
			want = append(want, id[:strings.IndexByte(id, '`')])
		}
	}
	var got []string
	for _, e := range Registry() {
		got = append(got, e.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("registry ids %v, DESIGN.md §3 ids %v", got, want)
	}
	if _, err := Lookup("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("bogus id accepted")
	}
}

// update rewrites testdata/*.golden from the current run:
//
//	go test ./internal/bench -run TestQuickExperimentsProduceRows -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// TestQuickExperimentsProduceRows runs every experiment, heavy ones
// included, end-to-end at smoke scale: the full pipeline (datasets → PPR →
// factorizations → downstream tasks) must produce a non-empty,
// well-formed table whose non-timing cells match testdata/<id>.golden.
func TestQuickExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	o := QuickOptions()
	o.SubsetSize = 40
	o.Dim = 8
	o.Scale = 0.08
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(o)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("table %q row width %d != header %d", tab.Title, len(row), len(tab.Header))
					}
					for _, cell := range row {
						if strings.Contains(cell, "NaN") {
							t.Fatalf("table %q contains NaN cell", tab.Title)
						}
					}
				}
				tab.Fprint(io.Discard)
			}
			checkGolden(t, e.ID, tables)
		})
	}
}

// timingCell matches what dur() and the "…x" speedups print: the cells
// that vary from run to run.
var timingCell = regexp.MustCompile(`^[0-9]+(\.[0-9]+)?(s|ms|µs|x)$`)

// checkGolden compares the tables, timing cells masked, against
// testdata/<id>.golden. QR and eigensolver bits may differ on other
// architectures (DESIGN.md §6), so the comparison runs on amd64 only.
func checkGolden(t *testing.T, id string, tables []*Table) {
	t.Helper()
	var sb strings.Builder
	for _, tab := range tables {
		fmt.Fprintf(&sb, "== %s ==\n%s\n", tab.Title, strings.Join(tab.Header, " | "))
		for _, row := range tab.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				if timingCell.MatchString(c) {
					c = "<t>"
				}
				cells[i] = c
			}
			fmt.Fprintln(&sb, strings.Join(cells, " | "))
		}
	}
	path := filepath.Join("testdata", id+".golden")
	if *update {
		must0(os.MkdirAll("testdata", 0o755))
		must0(os.WriteFile(path, []byte(sb.String()), 0o644))
		return
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", id, path, got, want)
	}
}

// TestTableFprint checks the rendering, and that a multi-byte cell (a
// dur() value in µs) pads to the same column as its neighbours.
func TestTableFprint(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"A", "B"}, Notes: []string{"n"}}
	tab.AddRow("1", "22")
	tab.AddRow(dur(102*time.Microsecond), "-")
	tab.AddRow("1.5ms", "x")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "A", "22", "102µs", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Column B starts at rune 7 (width 5 of column A, then two spaces)
	// on the header, separator and every row.
	for _, line := range strings.Split(out, "\n")[2:7] {
		if r := []rune(line); len(r) < 8 || r[6] != ' ' || r[7] == ' ' {
			t.Fatalf("column B not at rune 7 in %q:\n%s", line, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := DefaultOptions()
	if o.SubsetSize != 300 || o.Dim != 32 {
		t.Fatalf("unexpected defaults %+v", o)
	}
	q := QuickOptions()
	if q.SubsetSize >= o.SubsetSize || q.Scale >= o.Scale {
		t.Fatal("quick options not smaller than defaults")
	}
}
