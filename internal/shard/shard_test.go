package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets/httpd"
	"spex/internal/targets/ldapd"
	"spex/internal/targets/proxyd"
)

// workloadFor infers a real target and generates its full
// misconfiguration list — the exact input the drivers feed the
// scheduler.
func workloadFor(t testing.TB, sys sim.System) Workload {
	t.Helper()
	res, err := spex.InferSystem(sys)
	if err != nil {
		t.Fatalf("infer %s: %v", sys.Name(), err)
	}
	tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
	if err != nil {
		t.Fatalf("parse %s template: %v", sys.Name(), err)
	}
	return Workload{Sys: sys, Set: res.Set, Ms: confgen.NewRegistry().Generate(res.Set, tmpl)}
}

func TestInterleaveRoundRobin(t *testing.T) {
	got := Interleave([]int{3, 1, 2})
	want := []Task{
		{0, 0}, {1, 0}, {2, 0}, // round 0: every target
		{0, 1}, {2, 1}, // round 1: target 1 drained
		{0, 2}, // round 2: only target 0 left
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Interleave = %v, want %v", got, want)
	}
	if len(Interleave(nil)) != 0 {
		t.Error("Interleave(nil) should be empty")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("2/4")
	if err != nil || p.Shard != 2 || p.Of != 4 || !p.Enabled() {
		t.Errorf("ParsePlan(2/4) = %v, %v", p, err)
	}
	if p.String() != "2/4" {
		t.Errorf("String() = %q", p.String())
	}
	if q, err := ParsePlan("1/1"); err != nil || q.Enabled() {
		t.Errorf("ParsePlan(1/1) = %v, %v (1/1 must parse but not partition)", q, err)
	}
	for _, bad := range []string{"", "2", "0/4", "5/4", "x/2", "1/x", "-1/2", "1/0"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

// TestPlanPartitionsDisjointAndComplete: every misconfiguration of a
// real workload belongs to exactly one shard, so N shard processes
// together execute the whole campaign with no overlap and no gap.
func TestPlanPartitionsDisjointAndComplete(t *testing.T) {
	w := workloadFor(t, ldapd.New())
	keys := w.ReplayKeys()
	for _, n := range []int{2, 3, 7} {
		owners := 0
		for j, m := range w.Ms {
			c := 0
			for i := 1; i <= n; i++ {
				if (Plan{Shard: i, Of: n}).Owns(w.Sys.Name(), keys[j]) {
					c++
				}
			}
			if c != 1 {
				t.Fatalf("N=%d: misconf %s owned by %d shards, want exactly 1", n, m.ID, c)
			}
			owners += c
		}
		if owners != len(w.Ms) {
			t.Errorf("N=%d: %d assignments for %d misconfigurations", n, owners, len(w.Ms))
		}
		total := 0
		for i := 1; i <= n; i++ {
			total += len((Plan{Shard: i, Of: n}).Apply([]Workload{w})[0].Ms)
		}
		if total != len(w.Ms) {
			t.Errorf("N=%d: shard filters cover %d of %d misconfigurations", n, total, len(w.Ms))
		}
	}
}

// TestKeySetPlan: an explicit key-set plan owns exactly its listed
// keys, is Enabled even when empty, and BuildWorkloads under it
// restricts the workload and vouches for the full campaign (Keep) the
// same way an i/N plan does — the contract the coordinator's leases
// compile to.
func TestKeySetPlan(t *testing.T) {
	sys := ldapd.New()
	res, err := spex.InferSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
	if err != nil {
		t.Fatal(err)
	}
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	keys := map[string]bool{}
	for _, m := range ms[:3] {
		keys[GlobalKey(sys.Name(), inject.CacheKey(m))] = true
	}
	p := KeySetPlan(keys)
	if !p.Enabled() {
		t.Error("key-set plan must be Enabled")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
	full := []Workload{{Sys: sys, Set: res.Set, Ms: ms}}
	if got := p.Apply(full)[0].Ms; len(got) != 3 {
		t.Errorf("Apply kept %d misconfigurations, want 3", len(got))
	}
	if p.Owns("othersystem", inject.CacheKey(ms[0])) {
		t.Error("key-set plan owns a foreign system's key")
	}
	empty := KeySetPlan(map[string]bool{})
	if !empty.Enabled() || len(empty.Apply(full)[0].Ms) != 0 {
		t.Error("empty key-set plan must be enabled and own nothing")
	}

	ws, totals, err := BuildWorkloads([]sim.System{sys}, []*spex.Result{res}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws[0].Ms) != 3 || totals[0] != len(ms) {
		t.Errorf("BuildWorkloads: %d owned of %d total, want 3 of %d", len(ws[0].Ms), totals[0], len(ms))
	}
	if len(ws[0].Keep) != len(ms) {
		t.Errorf("BuildWorkloads Keep vouches for %d keys, want the full campaign's %d", len(ws[0].Keep), len(ms))
	}
}

// TestOwnerConsistentWithPlan: the exported Owner helper (the
// coordinator's initial-assignment function) and Plan.Owns must agree,
// or a coordinated campaign would start from a different partition
// than a static -shard run.
func TestOwnerConsistentWithPlan(t *testing.T) {
	w := workloadFor(t, ldapd.New())
	for _, key := range w.ReplayKeys() {
		o := Owner(w.Sys.Name(), key, 4)
		for i := 1; i <= 4; i++ {
			owns := (Plan{Shard: i, Of: 4}).Owns(w.Sys.Name(), key)
			if owns != (o == i-1) {
				t.Fatalf("Owner says shard %d, Plan %d/4 says owns=%v", o+1, i, owns)
			}
		}
	}
}

// TestRunGlobalMatchesPerTarget: the global cross-target scheduler must
// produce, per system, the identical report a standalone per-system
// campaign produces, at every pool width — interleaving and parallelism
// change utilization, never results.
func TestRunGlobalMatchesPerTarget(t *testing.T) {
	ws := []Workload{workloadFor(t, ldapd.New()), workloadFor(t, httpd.New())}
	ctx := context.Background()

	var want []*inject.Report
	for _, w := range ws {
		rep, err := inject.RunContext(ctx, w.Sys, w.Ms, inject.DefaultOptions())
		if err != nil {
			t.Fatalf("per-target %s: %v", w.Sys.Name(), err)
		}
		want = append(want, rep)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := CampaignAll(ctx, nil, ws, Options{Workers: workers, Inject: inject.DefaultOptions()})
		if err != nil {
			t.Fatalf("CampaignAll at %d workers: %v", workers, err)
		}
		for i := range ws {
			if !reflect.DeepEqual(got[i].Report, want[i]) {
				t.Errorf("workers=%d: %s: global report differs from per-target report", workers, ws[i].Sys.Name())
			}
		}
	}
}

// TestRunGlobalProgressAggregates: per-outcome events carry consistent
// aggregate and per-system counters, ending exactly at the totals.
func TestRunGlobalProgressAggregates(t *testing.T) {
	ws := []Workload{workloadFor(t, ldapd.New()), workloadFor(t, httpd.New())}
	total := len(ws[0].Ms) + len(ws[1].Ms)
	var events []Progress
	_, err := CampaignAll(context.Background(), nil, ws, Options{
		Workers: 4, Inject: inject.DefaultOptions(),
		OnProgress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != total {
		t.Fatalf("%d progress events for %d tasks", len(events), total)
	}
	for i, e := range events {
		if e.Done != i+1 || e.Total != total {
			t.Fatalf("event %d: aggregate %d/%d, want %d/%d", i, e.Done, e.Total, i+1, total)
		}
	}
	last := events[len(events)-1]
	if last.Done != last.Total {
		t.Errorf("final event %d/%d is not complete", last.Done, last.Total)
	}
}

// TestProgressOnCancellationReportsSkippedNotDone: cancelling a campaign
// must not drive progress to N/N. Misconfigurations the cancellation
// kept from starting are tallied on Report.Skipped and get no progress
// event, so the last event counts exactly the outcomes attempted.
func TestProgressOnCancellationReportsSkippedNotDone(t *testing.T) {
	ws := []Workload{workloadFor(t, ldapd.New())}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last Progress
	runs, err := CampaignAll(ctx, nil, ws, Options{Workers: 1, Inject: inject.DefaultOptions(),
		OnProgress: func(p Progress) {
			last = p
			if p.Done == 2 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rep := runs[0].Report
	if rep.Skipped == 0 {
		t.Fatal("no outcomes tallied as skipped")
	}
	// Progress reported exactly the outcomes that were attempted (done or
	// errored in flight), never the flushed remainder.
	attempted, skipped := 0, 0
	for _, o := range rep.Outcomes {
		if o.Skipped {
			skipped++
		} else {
			attempted++
		}
	}
	if skipped != rep.Skipped {
		t.Fatalf("%d outcomes are marked skipped, tally says %d", skipped, rep.Skipped)
	}
	if last.Done != attempted || last.Done >= last.Total {
		t.Fatalf("progress ended at %d/%d, want the %d attempted outcomes, below the total", last.Done, last.Total, attempted)
	}
	// Skipped outcomes are not harness failures.
	for _, o := range rep.Errors() {
		if o.Skipped {
			t.Fatalf("skipped outcome listed as a harness error: %+v", o)
		}
	}
}

// TestCampaignAllSavesEachSystemAtCompletion: a store-backed campaign
// saves each system when its last misconfiguration completes and only
// then delivers that completion event — ldapd's whole campaign is on
// disk at its final event while proxyd still has events to come.
func TestCampaignAllSavesEachSystemAtCompletion(t *testing.T) {
	ws := []Workload{workloadFor(t, ldapd.New()), workloadFor(t, proxyd.New())}
	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	onDisk, proxydAfter := -1, 0
	opts := Options{Workers: 1, Inject: inject.DefaultOptions(), OnProgress: func(p Progress) {
		switch {
		case p.System == "ldapd" && p.SystemDone == p.SystemTotal:
			if p.Run == nil || !p.Run.Status.Saved || p.Run.Err != nil {
				t.Errorf("ldapd completion event carries run %+v, want a saved run", p.Run)
			}
			snap, err := store.Load("ldapd")
			if err != nil {
				t.Errorf("ldapd is not on disk at its completion event: %v", err)
				return
			}
			onDisk = len(snap.Outcomes)
		case p.System == "proxyd" && onDisk >= 0:
			proxydAfter++
		}
	}}
	if _, err := lockedCampaign(t, context.Background(), store, ws, opts); err != nil {
		t.Fatal(err)
	}
	if onDisk != len(ws[0].Ms) {
		t.Errorf("ldapd snapshot held %d outcomes at its completion event, want all %d", onDisk, len(ws[0].Ms))
	}
	if proxydAfter == 0 {
		t.Error("proxyd had no events left after ldapd completed")
	}

	// Warm: both systems replay in full, and each is re-saved by its
	// own pipeline before its completion event arrives (these workloads
	// carry no Canon, so their loads take the full decode and they never
	// count as unchanged).
	start := time.Now()
	completions := 0
	opts = Options{Workers: 2, Inject: inject.DefaultOptions(), OnProgress: func(p Progress) {
		if p.Run == nil {
			return
		}
		completions++
		if !p.Run.Status.Saved || p.Run.Err != nil {
			t.Errorf("%s completion event carries run %+v, want a saved run", p.System, p.Run)
		}
		snap, err := store.Load(p.System)
		if err != nil {
			t.Errorf("%s is not on disk at its completion event: %v", p.System, err)
			return
		}
		if len(snap.Outcomes) != p.SystemTotal || !snap.SavedAt.After(start) {
			t.Errorf("%s at its completion event: %d of %d outcomes saved at %v, want all re-saved after %v",
				p.System, len(snap.Outcomes), p.SystemTotal, snap.SavedAt, start)
		}
	}}
	runs, err := lockedCampaign(t, context.Background(), store, ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if completions != len(ws) {
		t.Errorf("%d completion events, want %d", completions, len(ws))
	}
	for i, run := range runs {
		if run.Report.Replayed != len(ws[i].Ms) {
			t.Errorf("%s warm run replayed %d of %d", run.Sys.Name(), run.Report.Replayed, len(ws[i].Ms))
		}
	}
}

// TestShardMergeMatchesUnsharded is the acceptance criterion: the same
// workload executed as 1, 2, and 4 separate shard campaigns, merged,
// yields a store fingerprint identical to the unsharded run's and a
// replayed report deeply equal to the unsharded replay.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	sys := ldapd.New()
	w := workloadFor(t, sys)
	ctx := context.Background()
	opts := Options{Workers: 4, Inject: inject.DefaultOptions()}

	// Unsharded baseline: full campaign, then a 100%-replay run.
	usDir := t.TempDir()
	usStore, err := campaignstore.Open(usDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lockedCampaign(t, ctx, usStore, []Workload{{Sys: sys, Set: w.Set, Ms: w.Ms}}, opts); err != nil {
		t.Fatal(err)
	}
	usSnap, err := usStore.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	usFP, err := usSnap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	usReplay, err := lockedCampaign(t, ctx, usStore, []Workload{{Sys: sys, Set: w.Set, Ms: w.Ms}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := usReplay[0].Report.Replayed; got != len(w.Ms) {
		t.Fatalf("unsharded replay executed work: replayed %d of %d", got, len(w.Ms))
	}

	for _, n := range []int{1, 2, 4} {
		var dirs []string
		for i := 1; i <= n; i++ {
			plan := Plan{Shard: i, Of: n}
			dir := t.TempDir()
			store, err := campaignstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sw := Workload{Sys: sys, Set: w.Set, Ms: plan.Apply([]Workload{w})[0].Ms}
			if _, err := lockedCampaign(t, ctx, store, []Workload{sw}, opts); err != nil {
				t.Fatalf("N=%d shard %d: %v", n, i, err)
			}
			dirs = append(dirs, dir)
		}
		mergedDir := t.TempDir()
		stats, err := mergeInto(t, mergedDir, dirs)
		if err != nil {
			t.Fatalf("N=%d merge: %v", n, err)
		}
		if len(stats) != 1 || stats[0].Outcomes != len(w.Ms) || stats[0].Duplicates != 0 {
			t.Fatalf("N=%d merge stats = %+v, want %d outcomes, 0 duplicates", n, stats, len(w.Ms))
		}
		mgStore, err := campaignstore.Open(mergedDir)
		if err != nil {
			t.Fatal(err)
		}
		mgSnap, err := mgStore.Load(sys.Name())
		if err != nil {
			t.Fatalf("N=%d: merged snapshot fails validation: %v", n, err)
		}
		mgFP, err := mgSnap.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if mgFP != usFP {
			t.Errorf("N=%d: merged store fingerprint %s != unsharded %s", n, mgFP, usFP)
		}
		mgReplay, err := lockedCampaign(t, ctx, mgStore, []Workload{{Sys: sys, Set: w.Set, Ms: w.Ms}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := mgReplay[0].Report.Replayed; got != len(w.Ms) {
			t.Errorf("N=%d: merged replay re-executed work: replayed %d of %d", n, got, len(w.Ms))
		}
		if !reflect.DeepEqual(mgReplay[0].Report, usReplay[0].Report) {
			t.Errorf("N=%d: merged replay report differs from unsharded replay report", n)
		}
	}
}

// TestShardRefreshPreservesPeerOutcomes: re-running one shard against a
// merged store (Workload.Keep vouching for the full campaign's keys)
// must replay its own partition and carry the other shards' outcomes
// through the save, not prune them as stale.
func TestShardRefreshPreservesPeerOutcomes(t *testing.T) {
	sys := ldapd.New()
	w := workloadFor(t, sys)
	ctx := context.Background()
	opts := Options{Workers: 4, Inject: inject.DefaultOptions()}

	mergedDir := t.TempDir()
	var dirs []string
	for i := 1; i <= 2; i++ {
		plan := Plan{Shard: i, Of: 2}
		dir := t.TempDir()
		store, err := campaignstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sw := Workload{Sys: sys, Set: w.Set, Ms: plan.Apply([]Workload{w})[0].Ms}
		if _, err := lockedCampaign(t, ctx, store, []Workload{sw}, opts); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	if _, err := mergeInto(t, mergedDir, dirs); err != nil {
		t.Fatal(err)
	}
	mgStore, err := campaignstore.Open(mergedDir)
	if err != nil {
		t.Fatal(err)
	}

	// Refresh shard 1 against the merged store, vouching for every key.
	plan := Plan{Shard: 1, Of: 2}
	keep := make(map[string]bool, len(w.Ms))
	for _, m := range w.Ms {
		keep[inject.CacheKey(m)] = true
	}
	sw := Workload{Sys: sys, Set: w.Set, Ms: plan.Apply([]Workload{w})[0].Ms, Keep: keep}
	runs, err := lockedCampaign(t, ctx, mgStore, []Workload{sw}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs[0].Report.Replayed; got != len(sw.Ms) {
		t.Errorf("shard refresh replayed %d of its %d outcomes", got, len(sw.Ms))
	}
	snap, err := mgStore.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Outcomes) != len(w.Ms) {
		t.Errorf("after a shard-1 refresh the merged store holds %d outcomes, want the full campaign's %d (peer shard's work was pruned)",
			len(snap.Outcomes), len(w.Ms))
	}
}

// TestShardRefreshKeepsCarriedStamps: a shard refresh stamps its own
// partition's outcomes at save time and carries its peers' outcomes
// (Workload.Keep) with their stored stamps, so a carried copy never
// looks fresher than the owner's last retest at merge time.
func TestShardRefreshKeepsCarriedStamps(t *testing.T) {
	sys := ldapd.New()
	w := workloadFor(t, sys)
	ctx := context.Background()
	opts := Options{Workers: 4, Inject: inject.DefaultOptions()}
	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lockedCampaign(t, ctx, store, []Workload{w}, opts); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	for k := range snap.Stamps {
		snap.Stamps[k] = t0
	}
	if err := saveLocked(t, store, snap); err != nil {
		t.Fatal(err)
	}

	plan := Plan{Shard: 1, Of: 2}
	keep := make(map[string]bool, len(w.Ms))
	for _, m := range w.Ms {
		keep[inject.CacheKey(m)] = true
	}
	sw := Workload{Sys: sys, Set: w.Set, Ms: plan.Apply([]Workload{w})[0].Ms, Keep: keep}
	if _, err := lockedCampaign(t, ctx, store, []Workload{sw}, opts); err != nil {
		t.Fatal(err)
	}
	own := make(map[string]bool, len(sw.Ms))
	for _, m := range sw.Ms {
		own[inject.CacheKey(m)] = true
	}
	if len(own) == 0 || len(own) == len(keep) {
		t.Fatalf("shard 1 owns %d of %d keys, want a proper subset", len(own), len(keep))
	}
	snap, err = store.Load(sys.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Outcomes) != len(keep) {
		t.Fatalf("refreshed snapshot holds %d outcomes, want %d", len(snap.Outcomes), len(keep))
	}
	for k := range snap.Outcomes {
		want := t0
		if own[k] {
			want = snap.SavedAt
		}
		if got := snap.Stamps[k]; !got.Equal(want) {
			t.Fatalf("key %q (own=%v) stamped %v, want %v", k, own[k], got, want)
		}
	}
}

// Synthetic snapshot fixtures for the merge validation tests.

func synthSet(params ...string) *constraint.Set {
	s := constraint.NewSet("synth")
	for _, p := range params {
		s.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: constraint.BasicString})
	}
	return s
}

func synthMisconf(id string, c *constraint.Constraint) confgen.Misconf {
	return confgen.Misconf{ID: id, Param: c.Param,
		Values: map[string]string{c.Param: "bad"}, Violates: c}
}

func saveSnapshot(t *testing.T, dir string, set *constraint.Set, opts inject.Options, outcomes map[string]inject.Outcome, savedAt time.Time) {
	t.Helper()
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := campaignstore.New("synth", set, opts, outcomes)
	snap.SavedAt = savedAt
	for k := range snap.Stamps {
		snap.Stamps[k] = savedAt
	}
	if err := saveLocked(t, store, snap); err != nil {
		t.Fatal(err)
	}
}

// TestMergeCarriedCopyNeverBeatsOwnersRetest: a shard refresh carries
// its peers' outcomes through its save (Workload.Keep) with their
// ORIGINAL per-key stamps, and Merge resolves duplicates by those
// stamps — so a later-saved snapshot holding a stale carried copy of a
// key must lose to the owning shard's earlier-saved but
// genuinely-fresher retest of that key.
func TestMergeCarriedCopyNeverBeatsOwnersRetest(t *testing.T) {
	set := synthSet("p", "q")
	opts := inject.DefaultOptions()
	mK := synthMisconf("mK", set.Constraints[0])
	mJ := synthMisconf("mJ", set.Constraints[1])
	keyK, keyJ := inject.CacheKey(mK), inject.CacheKey(mJ)
	stale := inject.Outcome{Misconf: mK, Reaction: inject.ReactionCrash}
	fresh := inject.Outcome{Misconf: mK, Reaction: inject.ReactionGood}
	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	t2, t3 := t0.Add(2*time.Hour), t0.Add(3*time.Hour)

	// Shard 2 (owner of K) retested K at t2.
	d2 := t.TempDir()
	saveSnapshot(t, d2, set, opts, map[string]inject.Outcome{keyK: fresh}, t2)

	// Shard 1 saved LATER (t3) with its own key J plus a stale carried
	// copy of K still stamped t0.
	d1 := t.TempDir()
	store1, err := campaignstore.Open(d1)
	if err != nil {
		t.Fatal(err)
	}
	snap1 := campaignstore.New("synth", set, opts, map[string]inject.Outcome{
		keyJ: {Misconf: mJ, Reaction: inject.ReactionTolerated},
		keyK: stale,
	})
	snap1.SavedAt = t3
	snap1.Stamps[keyJ] = t3
	snap1.Stamps[keyK] = t0 // carried, never re-validated by shard 1
	if err := saveLocked(t, store1, snap1); err != nil {
		t.Fatal(err)
	}

	mergedDir := t.TempDir()
	if _, err := mergeInto(t, mergedDir, []string{d1, d2}); err != nil {
		t.Fatal(err)
	}
	store, err := campaignstore.Open(mergedDir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load("synth")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Outcomes[keyK].Reaction; got != inject.ReactionGood {
		t.Errorf("merged K = %v: the stale carried copy (snapshot saved later) beat the owner's fresher retest", got)
	}
	if got := snap.Stamps[keyK]; !got.Equal(t2) {
		t.Errorf("merged K stamp = %v, want the owning retest's %v", got, t2)
	}
}

func TestMergeRejectsMixedOptions(t *testing.T) {
	set := synthSet("p")
	optimized := inject.DefaultOptions()
	naive := optimized
	naive.StopOnFirstFailure = false
	d1, d2 := t.TempDir(), t.TempDir()
	saveSnapshot(t, d1, set, optimized, map[string]inject.Outcome{}, time.Now().UTC())
	saveSnapshot(t, d2, set, naive, map[string]inject.Outcome{}, time.Now().UTC())
	_, err := mergeInto(t, t.TempDir(), []string{d1, d2})
	if err == nil || !strings.Contains(err.Error(), "options") {
		t.Errorf("merging mixed-options shards should fail on options, got %v", err)
	}
}

func TestMergeRejectsMixedConstraintSets(t *testing.T) {
	opts := inject.DefaultOptions()
	d1, d2 := t.TempDir(), t.TempDir()
	saveSnapshot(t, d1, synthSet("p"), opts, map[string]inject.Outcome{}, time.Now().UTC())
	saveSnapshot(t, d2, synthSet("p", "q"), opts, map[string]inject.Outcome{}, time.Now().UTC())
	_, err := mergeInto(t, t.TempDir(), []string{d1, d2})
	if err == nil || !strings.Contains(err.Error(), "constraint set") {
		t.Errorf("merging mixed-set shards should fail on the constraint set, got %v", err)
	}
}

func TestMergeFreshestWins(t *testing.T) {
	set := synthSet("p")
	opts := inject.DefaultOptions()
	c := set.Constraints[0]
	m := synthMisconf("m0", c)
	key := inject.CacheKey(m)
	older := inject.Outcome{Misconf: m, Reaction: inject.ReactionCrash}
	newer := inject.Outcome{Misconf: m, Reaction: inject.ReactionGood}
	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(time.Hour)

	// The fresher snapshot sits in the EARLIER source directory, so the
	// test distinguishes freshest-wins from last-directory-wins.
	d1, d2 := t.TempDir(), t.TempDir()
	saveSnapshot(t, d1, set, opts, map[string]inject.Outcome{key: newer}, t1)
	saveSnapshot(t, d2, set, opts, map[string]inject.Outcome{key: older}, t0)

	mergedDir := t.TempDir()
	stats, err := mergeInto(t, mergedDir, []string{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", stats[0].Duplicates)
	}
	store, err := campaignstore.Open(mergedDir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load("synth")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Outcomes[key].Reaction; got != inject.ReactionGood {
		t.Errorf("merged outcome reaction = %v, want the fresher snapshot's %v", got, inject.ReactionGood)
	}
}

// TestMergeEqualStampTieBreakDeterministic: when two shards carry the
// same key with exactly equal stamps, the winner must be a function of
// the shard directories (lexicographically greatest), not of the order
// the directories were passed to Merge.
func TestMergeEqualStampTieBreakDeterministic(t *testing.T) {
	set := synthSet("p")
	opts := inject.DefaultOptions()
	m := synthMisconf("m0", set.Constraints[0])
	key := inject.CacheKey(m)
	a := inject.Outcome{Misconf: m, Reaction: inject.ReactionCrash}
	b := inject.Outcome{Misconf: m, Reaction: inject.ReactionGood}
	stamp := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

	base := t.TempDir()
	dirA := filepath.Join(base, "shard-a")
	dirB := filepath.Join(base, "shard-b")
	saveSnapshot(t, dirA, set, opts, map[string]inject.Outcome{key: a}, stamp)
	saveSnapshot(t, dirB, set, opts, map[string]inject.Outcome{key: b}, stamp)

	for _, order := range [][]string{{dirA, dirB}, {dirB, dirA}} {
		mergedDir := t.TempDir()
		stats, err := mergeInto(t, mergedDir, order)
		if err != nil {
			t.Fatal(err)
		}
		if stats[0].Duplicates != 1 {
			t.Errorf("order %v: Duplicates = %d, want 1", order, stats[0].Duplicates)
		}
		store, err := campaignstore.Open(mergedDir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.Load("synth")
		if err != nil {
			t.Fatal(err)
		}
		// shard-b > shard-a lexicographically, so b must win either way.
		if got := snap.Outcomes[key].Reaction; got != inject.ReactionGood {
			t.Errorf("order %v: merged reaction = %v, want the lexicographically greatest dir's %v",
				order, got, inject.ReactionGood)
		}
	}
}

// TestMergeRejectsMisfiledSnapshot: a snapshot saved under a file name
// that does not match its system (a hand-copied file) must fail the
// merge with a clear error, not panic or silently double-count.
func TestMergeRejectsMisfiledSnapshot(t *testing.T) {
	set := synthSet("p")
	dir := t.TempDir()
	saveSnapshot(t, dir, set, inject.DefaultOptions(), map[string]inject.Outcome{}, time.Now().UTC())
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(store.Path("synth"), store.Path("renamed")); err != nil {
		t.Fatal(err)
	}
	_, err = mergeInto(t, t.TempDir(), []string{dir})
	if err == nil || !strings.Contains(err.Error(), `names system "synth", want "renamed"`) {
		t.Errorf("Merge with a misfiled snapshot = %v, want a names-system error", err)
	}
}

// TestMergeRefusesCorruptShard: a shard file with a flipped record byte
// or cut short mid-record fails the merge with the store's
// corrupt-snapshot error naming the shard's directory, and the
// destination keeps its earlier snapshot byte for byte, with no
// temporary file beside it.
func TestMergeRefusesCorruptShard(t *testing.T) {
	set := synthSet("p")
	outcomes := map[string]inject.Outcome{}
	for i := 0; i < 8; i++ {
		m := synthMisconf(fmt.Sprintf("m%d", i), set.Constraints[0])
		outcomes[inject.CacheKey(m)] = inject.Outcome{Misconf: m, Reaction: inject.ReactionGood, LogDump: "ok\n"}
	}
	good, dst := t.TempDir(), t.TempDir()
	saveSnapshot(t, good, set, inject.DefaultOptions(), outcomes, time.Now().UTC())
	if _, err := mergeInto(t, dst, []string{good}); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dst, "synth.campaign.snap")
	before, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(good, "synth.campaign.snap"))
	if err != nil {
		t.Fatal(err)
	}
	// The middle of the records: past the magic and the header frame.
	n, k := binary.Uvarint(data[len("SPEXSNP1"):])
	records := len("SPEXSNP1") + k + int(n)
	mid := records + (len(data)-records)/2
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"a flipped record byte", slices.Concat(data[:mid], []byte{data[mid] ^ 0xff}, data[mid+1:])},
		{"cut short mid-record", data[:mid]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := t.TempDir()
			if err := os.WriteFile(filepath.Join(bad, "synth.campaign.snap"), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := mergeInto(t, dst, []string{good, bad})
			if want := "shard: " + bad + ": campaignstore: corrupt snapshot for synth: "; err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("Merge = %v, want an error starting %q", err, want)
			}
			if after, err := os.ReadFile(merged); err != nil || !bytes.Equal(after, before) {
				t.Errorf("the failed merge changed the destination's snapshot (%v)", err)
			}
			if tmps, err := filepath.Glob(filepath.Join(dst, "*.tmp-*")); err != nil || len(tmps) != 0 {
				t.Errorf("the failed merge left %v (%v)", tmps, err)
			}
		})
	}
}

// TestMergeSkipsShardsWithoutTheSystem: a shard that saw none of a
// system's work (every misconfiguration hashed elsewhere) simply does
// not contribute to that system's merge.
func TestMergeSkipsShardsWithoutTheSystem(t *testing.T) {
	set := synthSet("p")
	opts := inject.DefaultOptions()
	c := set.Constraints[0]
	m := synthMisconf("m0", c)
	d1, d2 := t.TempDir(), t.TempDir()
	saveSnapshot(t, d1, set, opts,
		map[string]inject.Outcome{inject.CacheKey(m): {Misconf: m}}, time.Now().UTC())
	// d2 holds a snapshot for a different system only.
	store2, err := campaignstore.Open(d2)
	if err != nil {
		t.Fatal(err)
	}
	other := campaignstore.New("othersys", constraint.NewSet("othersys"), opts, map[string]inject.Outcome{})
	if err := saveLocked(t, store2, other); err != nil {
		t.Fatal(err)
	}
	stats, err := mergeInto(t, t.TempDir(), []string{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("merged %d systems, want 2 (synth + othersys)", len(stats))
	}
	for _, st := range stats {
		if st.System == "synth" && st.Shards != 1 {
			t.Errorf("synth merged from %d shards, want 1", st.Shards)
		}
	}
}
