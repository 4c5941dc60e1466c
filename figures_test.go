package clusterfds_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"clusterfds/internal/analysis"
)

// TestFigureTablesMatchFormulas keeps the paper's three results figures as
// EXPERIMENTS.md tabulates them honest: every cell of the Figure 5, 6 and 7
// tables reads as `%.2e` of its measure at the row's p and the column's N,
// and no table loses a cell.
func TestFigureTablesMatchFormulas(t *testing.T) {
	doc := readFile(t, "EXPERIMENTS.md")
	for _, fig := range []struct {
		name    string
		measure func(n int, p float64) float64
		cells   int
	}{
		{"Figure 5", analysis.FalseDetection, 18},
		{"Figure 6", analysis.FalseDetectionOnCH, 9},
		{"Figure 7", analysis.Incompleteness, 9},
	} {
		_, section, ok := strings.Cut(doc, "\n## "+fig.name+" ")
		if !ok {
			t.Errorf("EXPERIMENTS.md has no %s section", fig.name)
			continue
		}
		section, _, _ = strings.Cut(section, "\n## ")
		var ns []int
		cells := 0
		for _, line := range strings.Split(section, "\n") {
			row := strings.Split(strings.Trim(line, "| "), " | ")
			switch {
			case !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---"):
			case row[0] == "p":
				ns = ns[:0]
				for _, col := range row[1:] {
					n, err := strconv.Atoi(strings.TrimPrefix(col, "N="))
					if err != nil {
						t.Fatalf("%s: column %q is not N=<int>", fig.name, col)
					}
					ns = append(ns, n)
				}
			default:
				p, err := strconv.ParseFloat(row[0], 64)
				if err != nil || len(row) != len(ns)+1 {
					t.Fatalf("%s: malformed row %q", fig.name, line)
				}
				for i, n := range ns {
					cells++
					if want := fmt.Sprintf("%.2e", fig.measure(n, p)); row[i+1] != want {
						t.Errorf("%s: p=%v N=%d reads %s, the formula gives %s", fig.name, p, n, row[i+1], want)
					}
				}
			}
		}
		if cells != fig.cells {
			t.Errorf("%s: %d cells, want %d", fig.name, cells, fig.cells)
		}
	}
}
