package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worseBy is the share of base by which next is worse: positive when it
// regressed, negative when it improved.
func worseBy(b bound, base, next float64) float64 {
	if b.Better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// compareMain compares the medians of two result sets, each the result
// files a glob matches, metric by metric and workload by workload
// against the bounds in benchPath. It prints one row per workload and
// reports whether every metric stayed within its bound.
func compareMain(w io.Writer, benchPath, baseGlob, nextGlob string) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	base, nb, err := loadResultSet(baseGlob)
	if err != nil {
		return false, err
	}
	next, nn, err := loadResultSet(nextGlob)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base: %d file(s) %s; new: %d file(s) %s; cells are the new median's change, '!' past its bound\n",
		nb, baseGlob, nn, nextGlob)
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		if _, found := next[name]; !found {
			return false, fmt.Errorf("workload %s is in the base set only", name)
		}
		row, rowOK := compareRow(def.EndToEnd, base[name], next[name])
		ok = ok && rowOK
		fmt.Fprintf(w, "%-18s %s\n", name, row)
	}
	return ok, nil
}

// compareRow renders one workload's comparison and reports whether
// every metric is within its bound. A metric missing from either side
// counts as a failure.
func compareRow(bounds []bound, base, next map[string][]float64) (string, bool) {
	var cells []string
	ok := true
	for _, b := range bounds {
		if len(base[b.Name]) == 0 || len(next[b.Name]) == 0 {
			cells = append(cells, b.Name+" missing!")
			ok = false
			continue
		}
		change := worseBy(b, median(base[b.Name]), median(next[b.Name]))
		mark := ""
		if change > b.Bound {
			mark = "!"
			ok = false
		}
		if b.Better == "higher" {
			change = -change // print the change in the value, not in goodness
		}
		cells = append(cells, fmt.Sprintf("%s %+.1f%%%s", b.Name, 100*change, mark))
	}
	return strings.Join(cells, "  "), ok
}

// loadResultSet reads every result file a glob matches into workload →
// metric → values, one value per file.
func loadResultSet(glob string) (map[string]map[string][]float64, int, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("no result files match %s", glob)
	}
	set := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		for name, r := range f.Results {
			if !r.Correct {
				return nil, 0, fmt.Errorf("%s: %s run was not correct", p, name)
			}
			if set[name] == nil {
				set[name] = map[string][]float64{}
			}
			for k, m := range r.Metrics {
				set[name][k] = append(set[name][k], m.Value)
			}
		}
	}
	return set, len(paths), nil
}
