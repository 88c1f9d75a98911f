package report

import (
	"fmt"
	"strings"
)

// MaxTable is the highest table number of the paper's evaluation.
const MaxTable = 12

// MaxFigure is the highest figure number of the paper's evaluation.
const MaxFigure = 7

// BuildTables builds table n (1-12) in structured form. Most numbers
// yield one Table; 9 and 10 are rendered together (the historical-case
// study splits across two tables sharing one computation), so both
// return the pair — exactly the grouping spexeval prints. The returned
// tables are freshly built; callers may mutate them.
func BuildTables(n int, results []*SystemResult) ([]*Table, error) {
	switch n {
	case 1:
		return []*Table{buildTable1(results)}, nil
	case 2:
		return []*Table{buildTable2()}, nil
	case 3:
		return []*Table{buildTable3(results)}, nil
	case 4:
		return []*Table{buildTable4(results)}, nil
	case 5:
		return []*Table{buildTable5(results)}, nil
	case 6:
		return []*Table{buildTable6(results)}, nil
	case 7:
		return []*Table{buildTable7(results)}, nil
	case 8:
		return []*Table{buildTable8(results)}, nil
	case 9, 10:
		t9, t10 := buildTables9and10(results)
		return []*Table{t9, t10}, nil
	case 11:
		return []*Table{buildTable11(results)}, nil
	case 12:
		return []*Table{buildTable12(results)}, nil
	default:
		return nil, fmt.Errorf("report: no table %d", n)
	}
}

// RenderTableText renders table n exactly as cmd/spexeval prints it —
// one code path for the CLI and the daemon's text endpoint, pinned by
// the golden files under testdata/golden (golden_test.go).
func RenderTableText(n int, results []*SystemResult) (string, error) {
	ts, err := BuildTables(n, results)
	if err != nil {
		return "", err
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n"), nil
}

// RenderFigureText renders figure n (1-7) exactly as cmd/spexeval prints
// it. Figures 3 and 6 read the analysis; the others rerun their own
// case studies against the targets.
func RenderFigureText(n int, results []*SystemResult) (string, error) {
	switch n {
	case 1:
		return Figure1()
	case 2:
		return Figure2()
	case 3:
		return Figure3(results), nil
	case 4:
		return Figure4(), nil
	case 5:
		return Figure5()
	case 6:
		return Figure6(results), nil
	case 7:
		return Figure7()
	default:
		return "", fmt.Errorf("report: no figure %d", n)
	}
}
