// Package report regenerates every table and figure of the paper's
// evaluation (§4) from the simulated targets: inference, injection
// campaigns, design audits, and the historical-case study. Each renderer
// prints measured values next to the paper's published numbers; absolute
// counts differ (our corpora are condensed) but the shape — which systems
// lead which categories, which categories dominate — is the reproduction
// target.
package report

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"spex/internal/campaignstore"
	"spex/internal/casedb"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/designcheck"
	"spex/internal/inject"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
	"spex/internal/targets/minicorpus"
)

// SystemResult bundles everything measured for one target.
type SystemResult struct {
	Sys       sim.System
	Inference *spex.Result
	Campaign  *inject.Report
	Audit     *designcheck.Audit
	Accuracy  map[constraint.Kind]spex.Accuracy
	// StateErr records a non-fatal persistent-store failure: the
	// campaign completed and the tables are valid, but its snapshot
	// could not be saved (AnalyzeOptions.State). Drivers should
	// surface it as a warning.
	StateErr error
}

// AnalyzeOptions tune AnalyzeAll's scheduling.
type AnalyzeOptions struct {
	// Workers bounds both the inference fan-out and the one cross-target
	// campaign pool (0 = one per CPU).
	Workers int
	// OnCampaignProgress, if set, streams every completed campaign
	// outcome. This is the hook `spexeval -progress` feeds into
	// internal/progressui, giving it the same per-system bar display as
	// spexinj. Calls are serialized by the scheduler.
	OnCampaignProgress func(shard.Progress)
	// State, when set, persists each system's campaign snapshot through
	// this held writer lock (internal/campaignstore): campaigns replay
	// recorded outcomes across spexeval runs and re-execute only the
	// misconfigurations the constraint delta selects. Missing, corrupt
	// or schema-stale snapshots fall back to a full campaign and are
	// rebuilt. The caller acquires (and later releases) the state
	// directory's writer lock and passes the set it mints (Lock.Set()).
	// The set is the write capability, so an unlocked analysis cannot
	// save snapshots by construction.
	State *campaignstore.LockSet
	// Global is a no-op kept for existing callers: every analysis runs
	// its campaigns on the one cross-target pool.
	Global bool
}

// AnalyzeAllContext runs the pipeline over all seven targets: inference
// fans out opts.Workers wide on the engine pool, then every system's
// misconfigurations interleave round-robin on one cross-target campaign
// pool of the same width (internal/shard), so no target's serialized
// boot phase starves the pool and small targets draining early do not
// idle workers. The audits fold in sequentially (they cost
// microseconds). Results come back in the paper's Table 4/5 order, and
// the rendered tables are identical for every worker count.
func AnalyzeAllContext(ctx context.Context, opts AnalyzeOptions) ([]*SystemResult, error) {
	systems := targets.All()
	rs, err := spex.InferAll(ctx, systems, opts.Workers)
	if err != nil {
		return nil, err
	}
	ws, _, err := shard.BuildWorkloads(systems, rs, shard.Plan{})
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	gopts := shard.Options{Workers: opts.Workers, Inject: inject.DefaultOptions(), OnProgress: opts.OnCampaignProgress}
	runs, err := shard.CampaignAll(ctx, opts.State, ws, gopts)
	if err != nil {
		return nil, err
	}
	out := make([]*SystemResult, len(systems))
	for i, run := range runs {
		out[i] = &SystemResult{
			Sys:       systems[i],
			Inference: rs[i],
			Campaign:  run.Report,
			Audit:     designcheck.Run(rs[i]),
			Accuracy:  spex.Score(rs[i].Set, systems[i].GroundTruth()),
			StateErr:  run.Err,
		}
	}
	return out, nil
}

// Table is one rendered evaluation table in structured form — the
// machine-readable encoding path shared by the text renderers (String,
// byte-identical to what spexeval has always printed) and the
// daemon's JSON API (/v1/tables). Fields marshal 1:1, so a table
// round-trips through encoding/json without loss.
type Table struct {
	// Title is the heading, e.g. "Table 5: misconfiguration
	// vulnerabilities exposed (measured | paper)".
	Title string `json:"title"`
	// Cols are the column headers.
	Cols []string `json:"columns"`
	// Rows are the data cells, row-major, already formatted.
	Rows [][]string `json:"rows"`
	// Notes are the trailing "note:" lines.
	Notes []string `json:"notes,omitempty"`
}

func (t *Table) add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text — the exact bytes spexeval
// prints; the golden tests in encode_test.go hold the two paths
// together.
func (t *Table) String() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// cachedSurvey memoizes the minicorpus survey for the process: the
// corpus is static and the extraction deterministic, so the first
// Table 1 build pays for the 11-project parse/extract fan-out and
// every later build (spexeval's full render, each /v1/tables/1
// request on the daemon) reuses it.
var surveyOnce struct {
	sync.Once
	rows []minicorpus.SurveyResult
	err  error
}

func cachedSurvey() ([]minicorpus.SurveyResult, error) {
	surveyOnce.Do(func() {
		// The memoized value outlives any one caller, so no caller's
		// context may scope the survey (a cancelled first request would
		// poison the cache for the process).
		//spexlint:ignore ctxflow process-wide memo must not inherit a caller's cancellation
		surveyOnce.rows, surveyOnce.err = minicorpus.Survey(context.Background(), 0)
	})
	return surveyOnce.rows, surveyOnce.err
}

// Table1 renders the 18-project mapping-convention survey. The seven
// simulated targets report the convention their inference measured; the
// 11 minicorpus snippets are parsed and extracted through the sharded
// survey (minicorpus.Survey fans frontend.Parse/mapping.Extract out on
// the engine pool and folds the rows back in project order), so every
// rendered convention is measured, not transcribed.
func buildTable1(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 1: parameter-to-variable mapping in 18 software projects",
		Cols:  []string{"Software", "Description", "Convention"},
	}
	for _, r := range results {
		t.add(r.Sys.Name(), r.Sys.Description(), r.Inference.Convention)
	}
	survey, err := cachedSurvey()
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("minicorpus survey failed: %v", err))
	}
	for _, s := range survey {
		t.add(s.Project.Name, s.Project.Description, s.Convention)
		if s.Convention != s.Project.WantConvention {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: measured convention %q differs from the paper's %q",
				s.Project.Name, s.Convention, s.Project.WantConvention))
		}
	}
	t.Notes = append(t.Notes,
		"paper: every project uses structure, comparison, or container mapping (or a hybrid)")
	return t
}

// Table2 renders the misconfiguration generation rules.
func buildTable2() *Table {
	t := &Table{
		Title: "Table 2: SPEX-INJ generation rules per constraint kind",
		Cols:  []string{"Constraint", "Rules (plug-ins)"},
	}
	names := confgen.NewRegistry().RuleNames()
	kinds := []constraint.Kind{
		constraint.KindBasicType, constraint.KindSemanticType,
		constraint.KindRange, constraint.KindControlDep, constraint.KindValueRel,
	}
	for _, k := range kinds {
		t.add(k.String(), strings.Join(names[k], ", "))
	}
	return t
}

// Table3 renders the reaction taxonomy with observed counts across all
// campaigns.
func buildTable3(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 3: categories of bad system reactions (observed across all campaigns)",
		Cols:  []string{"Reaction", "Vulnerability", "Observed"},
	}
	total := map[inject.Reaction]int{}
	for _, r := range results {
		if r.Campaign == nil {
			continue
		}
		for k, v := range r.Campaign.CountByReaction() {
			total[k] += v
		}
	}
	order := []inject.Reaction{
		inject.ReactionCrash, inject.ReactionEarlyTerm, inject.ReactionFuncFailure,
		inject.ReactionSilentViolation, inject.ReactionSilentIgnorance,
		inject.ReactionGood, inject.ReactionTolerated,
	}
	for _, k := range order {
		t.add(k.String(), fmt.Sprintf("%v", k.Vulnerability()), fmt.Sprintf("%d", total[k]))
	}
	return t
}

// Table4 renders the evaluated systems: LoC, parameters, annotations.
func buildTable4(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 4: evaluated software systems",
		Cols:  []string{"Software", "LoC", "#Parameter", "LoA", "paper #Param", "paper LoA"},
	}
	paper := map[string][2]string{
		"Storage-A": {"(confidential)", "5"},
		"httpd":     {"103", "4"},
		"mydb":      {"272", "29"},
		"pgdb":      {"231", "7"},
		"ldapd":     {"86", "4"},
		"ftpd":      {"124", "5"},
		"proxyd":    {"335", "2"},
	}
	for _, r := range results {
		p := paper[r.Sys.Name()]
		t.add(r.Sys.Name(),
			fmt.Sprintf("%d", r.Inference.LoC),
			fmt.Sprintf("%d", r.Inference.Params),
			fmt.Sprintf("%d", r.Inference.LoA),
			p[0], p[1])
	}
	t.Notes = append(t.Notes, "corpora are condensed; annotation effort stays a handful of lines per system, as in the paper")
	return t
}

// paperTable5 holds the paper's Table 5a rows (exposed counts).
var paperTable5 = map[string][5]int{
	"Storage-A": {0, 0, 7, 74, 83},
	"httpd":     {5, 4, 9, 29, 5},
	"mydb":      {5, 10, 12, 71, 16},
	"pgdb":      {1, 10, 2, 1, 35},
	"ldapd":     {1, 3, 6, 7, 0},
	"ftpd":      {12, 5, 18, 23, 68},
	"proxyd":    {2, 3, 29, 173, 14},
}

// Table5 renders exposed vulnerabilities per category plus unique source
// locations.
func buildTable5(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 5: misconfiguration vulnerabilities exposed (measured | paper)",
		Cols: []string{"Software", "Crash/Hang", "EarlyTerm", "FuncFail",
			"SilentViol", "SilentIgnor", "Total", "UniqueLocs"},
	}
	var tot [5]int
	var totAll, totLocs int
	for _, r := range results {
		if r.Campaign == nil {
			continue
		}
		c := r.Campaign.CountByReaction()
		p := paperTable5[r.Sys.Name()]
		cells := []string{r.Sys.Name()}
		vals := []int{
			c[inject.ReactionCrash], c[inject.ReactionEarlyTerm],
			c[inject.ReactionFuncFailure], c[inject.ReactionSilentViolation],
			c[inject.ReactionSilentIgnorance],
		}
		sum := 0
		for i, v := range vals {
			cells = append(cells, fmt.Sprintf("%d | %d", v, p[i]))
			tot[i] += v
			sum += v
		}
		totAll += sum
		totLocs += r.Campaign.UniqueLocations()
		cells = append(cells, fmt.Sprintf("%d", sum), fmt.Sprintf("%d", r.Campaign.UniqueLocations()))
		t.add(cells...)
	}
	t.add("Total",
		fmt.Sprintf("%d | 26", tot[0]), fmt.Sprintf("%d | 35", tot[1]),
		fmt.Sprintf("%d | 83", tot[2]), fmt.Sprintf("%d | 378", tot[3]),
		fmt.Sprintf("%d | 221", tot[4]), fmt.Sprintf("%d | 743", totAll),
		fmt.Sprintf("%d | 448", totLocs))
	t.Notes = append(t.Notes,
		"shape check: silent violation dominates; Storage-A has no crashes/terminations; ftpd leads crashes; proxyd leads silent violations")
	return t
}

// Table6 renders the case-sensitivity split.
func buildTable6(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 6: case-sensitivity of configuration parameter values",
		Cols:  []string{"Software", "Sensitive", "Insensitive", "paper (sens/insens)"},
	}
	paper := map[string]string{
		"Storage-A": "32/453", "httpd": "3/26", "mydb": "1/58", "pgdb": "0/92",
		"ldapd": "0/9", "ftpd": "0/73", "proxyd": "85/76",
	}
	for _, r := range results {
		t.add(r.Sys.Name(),
			fmt.Sprintf("%d", r.Audit.CaseSensitive),
			fmt.Sprintf("%d", r.Audit.CaseInsensitive),
			paper[r.Sys.Name()])
	}
	return t
}

// Table7 renders size/time unit distributions.
func buildTable7(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 7: units of size- and time-related parameters",
		Cols:  []string{"Software", "B", "KB", "MB", "GB", "us", "ms", "s", "m", "h"},
	}
	for _, r := range results {
		su, tu := r.Audit.SizeUnits, r.Audit.TimeUnits
		t.add(r.Sys.Name(),
			fmt.Sprintf("%d", su[constraint.UnitByte]),
			fmt.Sprintf("%d", su[constraint.UnitKB]),
			fmt.Sprintf("%d", su[constraint.UnitMB]),
			fmt.Sprintf("%d", su[constraint.UnitGB]),
			fmt.Sprintf("%d", tu[constraint.UnitMicrosecond]),
			fmt.Sprintf("%d", tu[constraint.UnitMillisecond]),
			fmt.Sprintf("%d", tu[constraint.UnitSecond]),
			fmt.Sprintf("%d", tu[constraint.UnitMinute]),
			fmt.Sprintf("%d", tu[constraint.UnitHour]))
	}
	t.Notes = append(t.Notes, "paper shape: more than half of the systems mix units within a class (Storage-A mixes four size units)")
	return t
}

// Table8 renders the remaining error-prone design detectors.
func buildTable8(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 8: other error-prone configuration design and handling",
		Cols:  []string{"Software", "SilentOverruling", "UnsafeTransform", "UndocRange", "UndocDep", "UndocRel"},
	}
	for _, r := range results {
		t.add(r.Sys.Name(),
			fmt.Sprintf("%d", r.Audit.SilentOverruling),
			fmt.Sprintf("%d", r.Audit.UnsafeTransform),
			fmt.Sprintf("%d", r.Audit.UndocRange),
			fmt.Sprintf("%d", r.Audit.UndocDep),
			fmt.Sprintf("%d", r.Audit.UndocRel))
	}
	t.Notes = append(t.Notes,
		"paper shape: proxyd (Squid) leads overruling+unsafe APIs; mydb (MySQL)/pgdb use safe parsing; ftpd (VSFTP) has many undocumented dependencies")
	return t
}

// Tables9and10 renders the historical-case study.
func buildTables9and10(results []*SystemResult) (*Table, *Table) {
	byName := map[string]*SystemResult{}
	for _, r := range results {
		byName[r.Sys.Name()] = r
	}
	t9 := &Table{
		Title: "Table 9: real-world misconfiguration cases potentially avoided",
		Cols:  []string{"Software", "Cases", "Avoidable", "Pct", "paper"},
	}
	t10 := &Table{
		Title: "Table 10: breakdown of cases that cannot benefit",
		Cols:  []string{"Software", "Single-SW", "Cross-SW", "Conform", "GoodReactions"},
	}
	paper9 := map[string]string{
		"Storage-A": "68/246 (27.6%)", "httpd": "19/50 (38.0%)",
		"mydb": "14/47 (29.8%)", "ldapd": "12/49 (24.5%)",
	}
	for _, spec := range casedb.PaperSpecs() {
		r := byName[spec.System]
		if r == nil {
			continue
		}
		cases := casedb.Generate(spec, r.Inference.Set)
		study := casedb.Run(spec.System, cases, r.Inference.Set)
		t9.add(spec.System,
			fmt.Sprintf("%d", study.Total()),
			fmt.Sprintf("%d", study.Count(casedb.CategoryAvoidable)),
			fmt.Sprintf("%.1f%%", study.Pct(casedb.CategoryAvoidable)),
			paper9[spec.System])
		t10.add(spec.System,
			fmt.Sprintf("%d (%.1f%%)", study.Count(casedb.CategorySingleSW), study.Pct(casedb.CategorySingleSW)),
			fmt.Sprintf("%d (%.1f%%)", study.Count(casedb.CategoryCrossSW), study.Pct(casedb.CategoryCrossSW)),
			fmt.Sprintf("%d (%.1f%%)", study.Count(casedb.CategoryConform), study.Pct(casedb.CategoryConform)),
			fmt.Sprintf("%d (%.1f%%)", study.Count(casedb.CategoryGoodReaction), study.Pct(casedb.CategoryGoodReaction)))
	}
	t9.Notes = append(t9.Notes, "paper band: 24%-38% of sampled historic cases avoidable")
	return t9, t10
}

// Table11 renders inferred constraints per kind.
func buildTable11(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 11: configuration constraints inferred by SPEX",
		Cols:  []string{"Software", "Basic", "Semantic", "Range", "CtrlDep", "ValueRel", "Total"},
	}
	paper := map[string][5]int{
		"Storage-A": {922, 111, 490, 81, 20},
		"httpd":     {103, 22, 42, 1, 9},
		"mydb":      {272, 74, 213, 35, 10},
		"pgdb":      {231, 52, 186, 44, 6},
		"ldapd":     {75, 15, 20, 0, 2},
		"ftpd":      {130, 34, 84, 68, 1},
		"proxyd":    {258, 46, 120, 14, 9},
	}
	var tot [5]int
	grand := 0
	for _, r := range results {
		c := r.Inference.Set.CountByKind()
		p := paper[r.Sys.Name()]
		vals := []int{
			c[constraint.KindBasicType], c[constraint.KindSemanticType],
			c[constraint.KindRange], c[constraint.KindControlDep], c[constraint.KindValueRel],
		}
		cells := []string{r.Sys.Name()}
		sum := 0
		for i, v := range vals {
			cells = append(cells, fmt.Sprintf("%d | %d", v, p[i]))
			tot[i] += v
			sum += v
		}
		grand += sum
		cells = append(cells, fmt.Sprintf("%d", sum))
		t.add(cells...)
	}
	t.add("Total",
		fmt.Sprintf("%d | 1991", tot[0]), fmt.Sprintf("%d | 354", tot[1]),
		fmt.Sprintf("%d | 1155", tot[2]), fmt.Sprintf("%d | 243", tot[3]),
		fmt.Sprintf("%d | 57", tot[4]), fmt.Sprintf("%d | 3800", grand))
	t.Notes = append(t.Notes, "shape: basic types cover every parameter; semantic types are fewer; ftpd leads control dependencies relative to size")
	return t
}

// Table12 renders inference accuracy against ground truth.
func buildTable12(results []*SystemResult) *Table {
	t := &Table{
		Title: "Table 12: accuracy of constraint inference (measured, paper)",
		Cols:  []string{"Software", "Basic", "Semantic", "Range", "CtrlDep", "ValueRel"},
	}
	paper := map[string][5]string{
		"Storage-A": {"97.0%", "95.7%", "87.1%", "84.1%", "94.1%"},
		"httpd":     {"96.1%", "91.7%", "94.6%", "100.0%", "81.8%"},
		"mydb":      {"100.0%", "98.7%", "99.1%", "94.7%", "71.4%"},
		"pgdb":      {"100.0%", "96.3%", "97.3%", "91.7%", "85.7%"},
		"ldapd":     {"88.2%", "93.7%", "73.1%", "N/A", "50.0%"},
		"ftpd":      {"100.0%", "100.0%", "100.0%", "63.9%", "100.0%"},
		"proxyd":    {"77.0%", "100.0%", "100.0%", "77.8%", "100.0%"},
	}
	kinds := []constraint.Kind{
		constraint.KindBasicType, constraint.KindSemanticType,
		constraint.KindRange, constraint.KindControlDep, constraint.KindValueRel,
	}
	for _, r := range results {
		cells := []string{r.Sys.Name()}
		p := paper[r.Sys.Name()]
		for i, k := range kinds {
			a := r.Accuracy[k]
			if a.Total == 0 {
				cells = append(cells, "N/A, "+p[i])
				continue
			}
			cells = append(cells, fmt.Sprintf("%.1f%%, %s", 100*a.Ratio(), p[i]))
		}
		t.add(cells...)
	}
	t.Notes = append(t.Notes,
		"shape: accuracy above 90% for most systems; ldapd lowest on ranges (pointer aliasing through the shared ConfigArgs scratch)")
	return t
}
