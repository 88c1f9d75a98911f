package report

import (
	"context"
	"errors"
	"fmt"

	"spex/internal/campaignstore"
	"spex/internal/constraint"
	"spex/internal/designcheck"
	"spex/internal/inject"
	"spex/internal/outcomeindex"
	"spex/internal/shard"
	"spex/internal/spex"
	"spex/internal/targets"
)

// ErrStateIncomplete reports that a state directory cannot serve a
// full read-only analysis: a system has no snapshot, the snapshot was
// recorded under different outcome-affecting options, it covers a
// different constraint set than this build infers, or it is missing
// outcomes (e.g. a campaign cancelled mid-run). The fix is always the
// same — run (or finish) a campaign against the store.
var ErrStateIncomplete = errors.New("report: campaign state incomplete")

// ReplayFromIndex builds the full seven-system analysis from the
// store's outcome indexes, without executing a single misconfiguration
// and without writing anything — `spexeval -index`, and through
// ReplayWorkloadsFromIndex the daemon's table-serving path. Inference,
// audits and accuracy are recomputed (they are deterministic, cheap,
// and never touch the store); the campaign side is reconstructed from
// each system's index docs, which carry the complete projection the
// tables consume (reaction, error status, and the violated constraint's
// source location — the inputs of Report.CountByReaction and
// Report.UniqueLocations). The rendered tables are therefore
// byte-identical to `spexeval -state` over the same store. The store
// read is LoadIndexAll: a store that holds current indexes (the
// daemon's) serves them from memory, and a fresh process decodes each
// snapshot once to build them. Serving needs no lock and writes
// nothing: a reader sees the last completed save even while a job is
// running.
//
// The index must cover this build's options identity, the constraint
// set the fresh inference produced, and every misconfiguration's replay
// key — anything less is ErrStateIncomplete, never a silently partial
// table.
func ReplayFromIndex(ctx context.Context, store *campaignstore.Store) ([]*SystemResult, error) {
	systems := targets.All()
	rs, err := spex.InferAll(ctx, systems, 0)
	if err != nil {
		return nil, err
	}
	ws, _, err := shard.BuildWorkloads(systems, rs, shard.Plan{})
	if err != nil {
		return nil, err
	}
	idxs, err := store.LoadIndexAll()
	if err != nil {
		return nil, err
	}
	return ReplayWorkloadsFromIndex(idxs, rs, ws)
}

// ReplayWorkloadsFromIndex is ReplayFromIndex over indexes and an
// inference the caller already holds: idxs are the store's outcome
// indexes (in any order; a system without one has no snapshot), rs the
// seven targets' inference results in targets.All order and ws the
// workloads shard.BuildWorkloads built from them. It reads nothing
// else, so the analysis shows exactly the store state idxs describe —
// the daemon hashes the same indexes into the tables' ETag. A resident
// caller (the daemon) derives rs and ws once and renders every table
// rebuild from them; nothing passed in is modified, so concurrent calls
// may share it all.
func ReplayWorkloadsFromIndex(idxs []*outcomeindex.System, rs []*spex.Result, ws []shard.Workload) ([]*SystemResult, error) {
	wantOpts := campaignstore.OptionsID(inject.DefaultOptions())
	byName := make(map[string]*outcomeindex.System, len(idxs))
	for _, idx := range idxs {
		byName[idx.System] = idx
	}
	out := make([]*SystemResult, len(ws))
	for i, w := range ws {
		name := w.Sys.Name()
		idx := byName[name]
		if idx == nil {
			return nil, fmt.Errorf("%w: no snapshot for %s (submit a campaign job first)", ErrStateIncomplete, name)
		}
		if idx.Options != wantOpts {
			return nil, fmt.Errorf("%w: %s snapshot was recorded under options %q, this build renders %q",
				ErrStateIncomplete, name, idx.Options, wantOpts)
		}
		if idx.SetFingerprint != w.Set.Fingerprint() {
			return nil, fmt.Errorf("%w: %s snapshot covers a different constraint set than this build infers (stale state; rerun the campaign)",
				ErrStateIncomplete, name)
		}
		missing := 0
		for _, key := range w.ReplayKeys() {
			if !idx.Has(key) {
				missing++
			}
		}
		if missing > 0 {
			return nil, fmt.Errorf("%w: %s snapshot is missing %d of %d outcomes (campaign cancelled mid-run? rerun it to completion)",
				ErrStateIncomplete, name, missing, len(w.Ms))
		}
		out[i] = &SystemResult{
			Sys:       w.Sys,
			Inference: rs[i],
			Campaign:  campaignFromIndex(idx),
			Audit:     designcheck.Run(rs[i]),
			Accuracy:  spex.Score(rs[i].Set, w.Sys.GroundTruth()),
		}
	}
	return out, nil
}

// campaignFromIndex reconstitutes a replayed campaign report from index
// docs. The docs are a projection, not the full outcomes — but they
// carry every field the table builders consume, so the tallies
// (CountByReaction, UniqueLocations, Vulnerabilities) are identical to
// a snapshot replay's. Replay accounting matches inject.Assemble on an
// all-replayed result set: every doc counts as replayed, and its sim
// cost lands on ReplayedSimCost.
func campaignFromIndex(idx *outcomeindex.System) *inject.Report {
	rep := &inject.Report{
		System:   idx.System,
		Outcomes: make([]inject.Outcome, len(idx.Docs)),
		Replayed: len(idx.Docs),
	}
	for i := range idx.Docs {
		d := &idx.Docs[i]
		rep.Outcomes[i] = inject.Outcome{
			Reaction:   inject.Reaction(d.Reaction),
			Pinpointed: d.Pinpointed,
			FailedTest: d.FailedTest,
			Loc:        constraint.SourceLoc{File: d.File, Line: d.Line, Func: d.Func},
			SimCost:    d.SimCost,
			Err:        d.Err,
		}
		rep.Outcomes[i].Misconf.ID = d.ID
		rep.Outcomes[i].Misconf.Param = d.Param
		rep.Outcomes[i].Misconf.Rule = d.Rule
		rep.Outcomes[i].Misconf.Description = d.Description
		rep.ReplayedSimCost += d.SimCost
	}
	return rep
}
