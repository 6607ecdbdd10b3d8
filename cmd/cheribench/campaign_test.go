package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/experiments"
	"cherisim/internal/workloads"
)

// frame renders an experiment's section the way RenderSelected does.
func frame(t *testing.T, id, text string) string {
	t.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("== %s: %s (%s) ==\n%s\n", e.ID, e.Title, e.Section, text)
}

func TestSplitSectionsAndExpectedBody(t *testing.T) {
	table1 := frame(t, "table1", "row\n== not a header ==\n")
	fig1 := frame(t, "fig1", "a\tb\n")
	table3 := frame(t, "table3", "last line without newline")
	body := table1 + fig1 + table3

	secs := splitSections([]byte(body))
	if got := sectionIDs(secs); !reflect.DeepEqual(got, []string{"table1", "fig1", "table3"}) {
		t.Fatalf("section ids = %v", got)
	}
	for i, want := range []string{table1, fig1, table3} {
		if string(secs[i].text) != want {
			t.Errorf("section %s = %q, want %q", secs[i].id, secs[i].text, want)
		}
	}
	for _, c := range []struct {
		sel  []string
		want string
		ok   bool
	}{
		{nil, body, true},
		{[]string{"table3", "table1"}, table1 + table3, true}, // set-up order, not request order
		{[]string{"fig1"}, fig1, true},
		{[]string{"fig2"}, "", false},
	} {
		got, ok := expectedBody(secs, c.sel)
		if ok != c.ok || string(got) != c.want {
			t.Errorf("expectedBody(%v) = %q, %v; want %q, %v", c.sel, got, ok, c.want, c.ok)
		}
	}
}

func TestSelectionsAreSeedDetermined(t *testing.T) {
	ids := []string{"table1", "table2", "fig1", "fig2", "table3", "table4", "fig4"}
	draw := func(seed uint64, client int) [][]string {
		next := warmSelections(seed, client, nil, ids)
		var out [][]string
		for i := 0; i < 200; i++ {
			out = append(out, next())
		}
		return out
	}
	a, b := draw(1, 0), draw(1, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different selections")
	}
	if reflect.DeepEqual(a, draw(2, 0)) || reflect.DeepEqual(a, draw(1, 1)) {
		t.Error("another seed or another client drew the same selections")
	}
	full := 0
	for _, sel := range a {
		if sel == nil {
			full++
			continue
		}
		if len(sel) < 1 || len(sel) > 5 {
			t.Errorf("selection %v: want 1 to 5 experiments", sel)
		}
		last := -1
		for _, id := range sel {
			i := indexOf(ids, id)
			if i <= last {
				t.Errorf("selection %v repeats or reorders experiments", sel)
			}
			last = i
		}
	}
	if full < 20 || full > 80 {
		t.Errorf("%d of 200 selections asked for the full set, want about a quarter", full)
	}

	mixed := mixedSelections(7, ids[:3])
	again := mixedSelections(7, ids[:3])
	for i := 0; i < 50; i++ {
		if x, y := mixed(), again(); !reflect.DeepEqual(x, y) || len(x) == 0 {
			t.Fatalf("mixed selection %d: %v vs %v", i, x, y)
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// TestOverheadErrorFromFigure1 checks that overhead_err parsed from a
// rendered Figure 1 equals the value computed from the same ratios, and is
// 0 when the simulated ratios equal the paper's.
func TestOverheadErrorFromFigure1(t *testing.T) {
	var rows strings.Builder
	rows.WriteString("Figure 1: execution time normalized to hybrid (lower is better)\n")
	rows.WriteString("benchmark        hybrid  benchmark-abi  purecap  paper(bench)  paper(purecap)\n")
	sim := func(w *workloads.Workload, a abi.ABI) (float64, bool) {
		return round3(1 + float64(len(w.Name)%7)/10 + float64(a)/100), true
	}
	for _, w := range workloads.All() {
		b, _ := sim(w, abi.Benchmark)
		p, _ := sim(w, abi.Purecap)
		fmt.Fprintf(&rows, "%s  1.000  %.3f  %.3f  -  -\n", w.Name, b, p)
	}
	fromText := fig1OverheadError([]byte(rows.String()))
	if want := overheadError(sim); fromText != want || want <= 0 {
		t.Errorf("overhead_err from Figure 1 text = %v, from the ratios = %v", fromText, want)
	}
	exact := overheadError(func(w *workloads.Workload, a abi.ABI) (float64, bool) {
		i := map[abi.ABI]int{abi.Benchmark: 1, abi.Purecap: 2}[a]
		return w.PaperTimes[i] / w.PaperTimes[0], true
	})
	if exact != 0 {
		t.Errorf("overhead_err of the paper's own ratios = %v, want 0", exact)
	}
	if got := overheadError(func(*workloads.Workload, abi.ABI) (float64, bool) { return 0, false }); got >= 0 {
		t.Errorf("overhead_err with a missing row = %v, want negative", got)
	}
}
