// Package inject is SPEX-INJ's testing harness (paper §3.1). For every
// generated misconfiguration it boots the target on fresh virtual
// substrates, runs the target's own functional tests, and classifies the
// reaction (Table 3). A reaction is a vulnerability unless the system
// pinpoints the faulting parameter in its logs. The harness applies the
// paper's two optimizations: run the shortest test first, and stop at the
// first failed test.
package inject

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/engine"
	"spex/internal/sim"
	"spex/internal/vfs"
)

// Reaction classifies how the system reacted to an injected
// misconfiguration (Table 3, plus the two non-vulnerability outcomes).
type Reaction int

const (
	// ReactionCrash: the system crashed or hung.
	ReactionCrash Reaction = iota
	// ReactionEarlyTerm: the system exited without pinpointing the
	// injected error.
	ReactionEarlyTerm
	// ReactionFuncFailure: a functional test failed without a
	// pinpointing message.
	ReactionFuncFailure
	// ReactionSilentViolation: the system changed the input
	// configuration to a different value without notifying the user.
	ReactionSilentViolation
	// ReactionSilentIgnorance: the system ignored the input
	// configuration (mainly for control-dependency violations).
	ReactionSilentIgnorance
	// ReactionGood: the system rejected or flagged the error AND
	// pinpointed the parameter — the desired behaviour, not a
	// vulnerability.
	ReactionGood
	// ReactionTolerated: the system behaved correctly despite the
	// injection (over-approximate constraint or benign value).
	ReactionTolerated
)

var reactionNames = [...]string{
	"crash/hang", "early termination", "functional failure",
	"silent violation", "silent ignorance", "good reaction", "tolerated",
}

func (r Reaction) String() string {
	if r < 0 || int(r) >= len(reactionNames) {
		return fmt.Sprintf("Reaction(%d)", int(r))
	}
	return reactionNames[r]
}

// Vulnerability reports whether the reaction counts as a misconfiguration
// vulnerability.
func (r Reaction) Vulnerability() bool {
	switch r {
	case ReactionCrash, ReactionEarlyTerm, ReactionFuncFailure,
		ReactionSilentViolation, ReactionSilentIgnorance:
		return true
	}
	return false
}

// Outcome is the result of testing one misconfiguration.
type Outcome struct {
	Misconf    confgen.Misconf
	Reaction   Reaction
	Pinpointed bool
	FailedTest string
	LogDump    string
	// Loc is the source location of the violated constraint — the code
	// location a fix would patch (Table 5b).
	Loc constraint.SourceLoc
	// SimCost is the simulated testing cost in test-weight units.
	SimCost int
	// Err records a harness-level failure (not a system reaction): the
	// misconfiguration could not be tested. Errored outcomes stay in the
	// report but are excluded from the reaction tallies.
	Err string
	// Skipped marks an outcome the scheduler never started because the
	// campaign was cancelled first. Skipped outcomes carry the context
	// error in Err but are not harness failures: they are reported as
	// skipped work, not as untestable misconfigurations.
	Skipped bool
	// Yielded marks an outcome a scheduler gate abandoned because its
	// key was reassigned to another worker mid-campaign (the
	// coordinator's work-stealing rebalance, internal/coord). Like
	// Skipped, a yielded outcome is not a harness failure: the thief
	// executes the misconfiguration and the merge folds its outcome in.
	Yielded bool
}

// ErrYielded is the gate error a scheduler returns for a
// misconfiguration whose lease was stolen by another worker: this
// process must not execute it. Outcomes carrying it are marked Yielded,
// never saved, and excluded from the harness-failure tallies.
var ErrYielded = errors.New("inject: lease reassigned to another worker")

// Report aggregates a campaign over one system.
type Report struct {
	System   string
	Outcomes []Outcome
	// TotalSimCost is the simulated campaign duration in weight units,
	// counting only outcomes that actually executed (replayed outcomes
	// cost nothing — the point of incremental retesting).
	TotalSimCost int
	// Replayed counts outcomes replayed from a stored snapshot.
	Replayed int
	// ReplayedSimCost is the simulated cost the replays avoided.
	ReplayedSimCost int
	// Skipped counts misconfigurations the scheduler never started
	// because the campaign was cancelled (distinct from harness errors).
	Skipped int
	// Yielded counts misconfigurations this worker gave up to a
	// work-stealing rebalance (distinct from both skips and harness
	// errors: another worker executes them).
	Yielded int
}

// CountByReaction tallies outcomes per reaction (Table 5a row). Errored
// outcomes are not reactions and are excluded.
func (r *Report) CountByReaction() map[Reaction]int {
	out := make(map[Reaction]int)
	for _, o := range r.Outcomes {
		if o.Err != "" {
			continue
		}
		out[o.Reaction]++
	}
	return out
}

// vulnerable reports whether an outcome is a vulnerability: it ran
// without a harness error and its reaction is one.
func vulnerable(o *Outcome) bool { return o.Err == "" && o.Reaction.Vulnerability() }

// Vulnerabilities returns the outcomes that are vulnerabilities.
func (r *Report) Vulnerabilities() []Outcome {
	var out []Outcome
	for i := range r.Outcomes {
		if vulnerable(&r.Outcomes[i]) {
			out = append(out, r.Outcomes[i])
		}
	}
	return out
}

// NumVulnerabilities is len(Vulnerabilities()), counted without copying
// an outcome.
func (r *Report) NumVulnerabilities() int {
	n := 0
	for i := range r.Outcomes {
		if vulnerable(&r.Outcomes[i]) {
			n++
		}
	}
	return n
}

// Finished counts the outcomes that ran (or replayed) to completion —
// everything except harness errors, cancellation skips, and steal
// yields. The drivers' replayed-vs-executed arithmetic is
// Finished() - Replayed.
func (r *Report) Finished() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Err == "" {
			n++
		}
	}
	return n
}

// Errors returns the outcomes the harness failed to test. Outcomes a
// cancellation skipped before they started, or a work-stealing
// rebalance reassigned to another worker, are not failures and are
// counted by Report.Skipped and Report.Yielded instead.
func (r *Report) Errors() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Err != "" && !o.Skipped && !o.Yielded {
			out = append(out, o)
		}
	}
	return out
}

// UniqueLocations counts distinct source-code locations behind the
// vulnerabilities (Table 5b): one patch may fix several vulnerabilities.
func (r *Report) UniqueLocations() int {
	type fileLine struct {
		file string
		line int
	}
	seen := map[fileLine]bool{}
	for i := range r.Outcomes {
		if o := &r.Outcomes[i]; vulnerable(o) {
			seen[fileLine{o.Loc.File, o.Loc.Line}] = true
		}
	}
	return len(seen)
}

// Options tune the campaign.
type Options struct {
	// StopOnFirstFailure stops testing a misconfiguration at the first
	// failed functional test (paper optimization 1).
	StopOnFirstFailure bool
	// SortTests runs the shortest test first (paper optimization 2).
	SortTests bool
	// SimCostDelay converts simulated cost units into real time: after
	// testing a misconfiguration the worker sleeps SimCost × this
	// duration, modeling the paper's real-server campaign where booting
	// the target once per misconfiguration dominates the cost (§3.1,
	// "under 10 hours"). Zero (the default) runs at full simulation
	// speed. The engine overlaps these delays across workers, so a
	// parallel campaign's wall-clock time shrinks toward
	// TotalSimCost/workers — the speedup the paper's optimizations and
	// the campaign scheduler (shard.CampaignAll) exist to deliver.
	SimCostDelay time.Duration
}

// DefaultOptions enables both paper optimizations.
func DefaultOptions() Options {
	return Options{StopOnFirstFailure: true, SortTests: true}
}

// Runner executes individual misconfigurations of one system — the unit
// of work the schedulers dispatch. It holds what every trial reads: the
// system's template configuration, parsed once, and its functional
// tests in run order. A trial only reads them and mutates its own clone
// of the template, so a Runner is safe for concurrent use: RunContext
// wraps one runner in a worker pool, and the global cross-target
// scheduler (internal/shard) interleaves many runners' tasks on a
// single pool.
type Runner struct {
	sys  sim.System
	tmpl *conffile.File
	// tmplErr is the template's parse error, which every trial returns.
	tmplErr error
	tests   []sim.FuncTest
	opts    Options
}

// NewRunner prepares a runner for the system: it parses the template
// and orders the tests (shortest first under Options.SortTests).
func NewRunner(sys sim.System, opts Options) *Runner {
	tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
	tests := slices.Clone(sys.Tests())
	if opts.SortTests {
		sort.SliceStable(tests, func(i, j int) bool { return tests[i].Weight < tests[j].Weight })
	}
	return &Runner{sys: sys, tmpl: tmpl, tmplErr: err, tests: tests, opts: opts}
}

// Trial is one misconfiguration's verdict with the evidence behind it.
// A campaign persists only the Outcome; the figures' case studies print
// the rest.
type Trial struct {
	Outcome Outcome
	// Start is what the boot did.
	Start sim.StartOutcome
	// TestErr is the error of the test Outcome.FailedTest names.
	TestErr error
	// Changed is the first injected parameter, in name order, whose
	// effective value differs from the injected one once every test
	// passed; Effective is that value.
	Changed, Effective string
}

// Test is Trial's outcome as a campaign records it: the log dump is
// trimmed from non-vulnerabilities, and the optional SimCostDelay sleep
// follows.
func (r *Runner) Test(ctx context.Context, m confgen.Misconf) (Outcome, error) {
	t, err := r.Trial(ctx, m)
	out := t.Outcome
	if err == nil && !out.Reaction.Vulnerability() {
		// Good/tolerated reactions never render their logs (ErrorReport
		// is only produced for vulnerabilities); dropping the dump keeps
		// persisted snapshots bounded by the vulnerability count, not
		// the campaign size.
		out.LogDump = ""
	}
	if err == nil && r.opts.SimCostDelay > 0 {
		sleepCost(ctx, out.SimCost, r.opts.SimCostDelay)
	}
	return out, err
}

// Assemble folds one system's engine results back into a campaign
// report, in input (ms) order: replayed results (replayed[i] set; a nil
// slice means none) have their metadata refreshed from the current
// misconfiguration list, errored and skipped tasks are recorded per
// outcome, and the cost tallies split into executed vs replayed.
// RunContext and the campaign scheduler (internal/shard) share this
// function, which is why a scheduled campaign's per-system report is
// identical to a per-system run's.
func Assemble(system string, ms []confgen.Misconf, results []engine.Result[Outcome], replayed []bool) *Report {
	rep := &Report{System: system, Outcomes: make([]Outcome, 0, len(ms))}
	for i, r := range results {
		out := r.Value
		replay := i < len(replayed) && replayed[i]
		if replay {
			// The replay key guarantees identity (constraint ID, rule ID,
			// injected values, env actions) but not metadata: a code
			// revision can move the constraint's source location without
			// changing its identity. Refresh the replayed outcome — which
			// the next snapshot persists — from the current
			// misconfiguration.
			out.Misconf = ms[i]
			if ms[i].Violates != nil {
				out.Loc = ms[i].Violates.Loc
			}
		}
		if r.Err != nil { // errored, cancelled mid-run, never started, or yielded
			// Per-outcome error: keep the campaign going, keep the
			// outcome out of the reaction tallies.
			out.Misconf = ms[i]
			out.Err = r.Err.Error()
			out.Skipped = r.Skipped
			out.Yielded = errors.Is(r.Err, ErrYielded)
			if r.Skipped {
				rep.Skipped++
			}
			if out.Yielded {
				rep.Yielded++
			}
		}
		rep.Outcomes = append(rep.Outcomes, out)
		if replay {
			rep.Replayed++
			rep.ReplayedSimCost += out.SimCost
		} else if out.Err == "" {
			rep.TotalSimCost += out.SimCost
		}
	}
	recordReportMetrics(rep)
	return rep
}

// RunContext executes a full campaign under a context and replays
// nothing: it is the plain reference run that the campaign scheduler
// (shard.CampaignAll) must match. Misconfigurations are dispatched
// through a hardware-sized engine pool; outcomes are reassembled in
// input order so the report is identical to a sequential run. A
// harness-level failure on one misconfiguration is recorded on its
// outcome (Outcome.Err) and the campaign keeps going. On cancellation
// the partial report is returned together with the context error:
// finished outcomes are kept, unstarted ones carry the context error
// and are marked Skipped (tallied on Report.Skipped, not as harness
// failures).
func RunContext(ctx context.Context, sys sim.System, ms []confgen.Misconf, opts Options) (*Report, error) {
	runner := NewRunner(sys, opts)
	results, cancelErr := engine.Run(ctx, len(ms), 0, func(ctx context.Context, i int) (Outcome, error) {
		return runner.Test(ctx, ms[i])
	})
	rep := Assemble(sys.Name(), ms, results, nil)
	if cancelErr != nil {
		return rep, fmt.Errorf("inject: %s: %w", sys.Name(), cancelErr)
	}
	return rep, nil
}

// Trial boots the misconfiguration on fresh virtual substrates, runs the
// functional tests and classifies the reaction: the one place a boot
// becomes a verdict. A returned error is a harness-level failure (the
// misconfiguration could not be tested), never a system reaction.
func (r *Runner) Trial(ctx context.Context, m confgen.Misconf) (Trial, error) {
	var t Trial
	out := &t.Outcome
	out.Misconf = m
	if m.Violates != nil {
		out.Loc = m.Violates.Loc
	}
	if r.tmplErr != nil {
		return t, r.tmplErr
	}
	cfg := r.tmpl.Clone()
	// Apply the injected values in sorted order so the rendered config —
	// and with it every downstream log line — is deterministic even for
	// multi-parameter misconfigurations.
	params := make([]string, 0, len(m.Values))
	for p := range m.Values {
		params = append(params, p)
	}
	sort.Strings(params)
	for _, p := range params {
		cfg.Set(p, m.Values[p])
	}

	env := sim.NewEnv()
	r.sys.SetupEnv(env)
	if err := applyEnv(env, m.Env); err != nil {
		return t, err
	}

	t.Start = sim.MonitorStartContext(ctx, r.sys, env, cfg)
	if k := t.Start.Kind; k == sim.StartCancelled || k == sim.StartTimeout {
		return t, t.Start.Err
	}
	out.SimCost = 1 // boot cost
	line, _ := cfg.LineOf(m.Param)
	injected := m.Values[m.Param]
	pin := env.Log.Pinpoints(m.Param, injected, line)

	switch t.Start.Kind {
	case sim.StartCrash, sim.StartHang:
		out.Reaction = ReactionCrash
		out.Pinpointed = false
		out.LogDump = env.Log.Dump()
		return t, nil
	case sim.StartExit, sim.StartError:
		out.Pinpointed = pin
		if pin {
			out.Reaction = ReactionGood
		} else {
			out.Reaction = ReactionEarlyTerm
		}
		out.LogDump = env.Log.Dump()
		return t, nil
	}

	inst := t.Start.Instance
	defer inst.Stop()

	for _, ft := range r.tests {
		out.SimCost += ft.Weight
		if err := sim.RunTest(ft, env, inst); err != nil {
			pin = env.Log.Pinpoints(m.Param, injected, line)
			out.FailedTest, t.TestErr = ft.Name, err
			out.Pinpointed = pin
			if pin {
				out.Reaction = ReactionGood
			} else {
				out.Reaction = ReactionFuncFailure
			}
			out.LogDump = env.Log.Dump()
			if r.opts.StopOnFirstFailure {
				return t, nil
			}
		}
	}
	if out.FailedTest != "" {
		return t, nil
	}

	// All tests passed: silent violation / ignorance analysis.
	pin = env.Log.Pinpoints(m.Param, injected, line)
	out.Pinpointed = pin
	out.LogDump = env.Log.Dump()

	for _, p := range params {
		if eff, ok := inst.Effective(p); ok && !sameValue(eff, m.Values[p]) {
			t.Changed, t.Effective = p, eff
			break
		}
	}
	switch {
	case pin:
		out.Reaction = ReactionGood
	case t.Changed != "":
		out.Reaction = ReactionSilentViolation
	case m.Violates != nil && m.Violates.Kind == constraint.KindControlDep:
		// The setting is retained verbatim but cannot take effect: the
		// dependency condition is violated by construction.
		out.Reaction = ReactionSilentIgnorance
	default:
		out.Reaction = ReactionTolerated
	}
	return t, nil
}

// sleepCost realizes a tested misconfiguration's simulated cost as wall
// time (SimCostDelay per unit), returning early if the campaign is
// cancelled — the outcome itself is already measured.
func sleepCost(ctx context.Context, units int, perUnit time.Duration) {
	t := time.NewTimer(time.Duration(units) * perUnit)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func sameValue(a, b string) bool {
	na, nb := normalize(a), normalize(b)
	return na == nb
}

func normalize(s string) string {
	s = strings.TrimSpace(s)
	// Numeric normalization: "0064" == "64".
	neg := strings.HasPrefix(s, "-")
	t := strings.TrimPrefix(s, "-")
	if t != "" && strings.Trim(t, "0123456789") == "" {
		t = strings.TrimLeft(t, "0")
		if t == "" {
			t = "0"
		}
		if neg {
			return "-" + t
		}
		return t
	}
	return s
}

func applyEnv(env *sim.Env, actions []confgen.EnvAction) error {
	for _, a := range actions {
		switch a.Kind {
		case confgen.EnvOccupyPort:
			if err := env.Net.OccupyForTest("tcp", a.Port); err != nil {
				return err
			}
			if err := env.Net.OccupyForTest("udp", a.Port); err != nil {
				return err
			}
		case confgen.EnvMakeDir:
			if err := env.FS.MkdirAll(a.Path); err != nil {
				return err
			}
		case confgen.EnvMakeUnreadable:
			if err := env.FS.WriteFile(a.Path, []byte("secret"), 0); err != nil {
				return err
			}
		case confgen.EnvEnsureMissing:
			if env.FS.Exists(a.Path) {
				if err := env.FS.Remove(a.Path); err != nil && err != vfs.ErrNotExist {
					return err
				}
			}
		}
	}
	return nil
}

// ErrorReport renders the developer-facing report for one vulnerability:
// the constraint, the injected error, the failed test, and the logs
// (paper §3.1 "Testing and Analysis").
func ErrorReport(o Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== SPEX-INJ error report: %s ===\n", o.Misconf.ID)
	if o.Misconf.Violates != nil {
		fmt.Fprintf(&b, "constraint : %s\n", o.Misconf.Violates)
	}
	var kv []string
	for p, v := range o.Misconf.Values {
		kv = append(kv, fmt.Sprintf("%s = %s", p, v))
	}
	sort.Strings(kv)
	fmt.Fprintf(&b, "injected   : %s (%s)\n", strings.Join(kv, ", "), o.Misconf.Description)
	fmt.Fprintf(&b, "reaction   : %s\n", o.Reaction)
	if o.FailedTest != "" {
		fmt.Fprintf(&b, "failed test: %s\n", o.FailedTest)
	}
	fmt.Fprintf(&b, "code loc   : %s\n", o.Loc)
	if o.LogDump == "" {
		b.WriteString("logs       : (none)\n")
	} else {
		b.WriteString("logs       :\n")
		for _, line := range strings.Split(strings.TrimRight(o.LogDump, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
