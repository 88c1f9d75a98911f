// Command spexeval regenerates the paper's evaluation: every table
// (1-12) and figure (1-7) of §4, measured against the seven simulated
// targets and printed next to the paper's published numbers.
//
// Inference fans out on the engine worker pool, then all seven
// campaigns interleave on one cross-target pool (internal/shard), so
// small targets draining early do not idle workers; -workers sets the
// width of both. -progress renders the campaign through
// internal/progressui (the same renderer as spexinj): per-system bars on
// a terminal, the throttled one-line aggregate otherwise. The rendered
// tables are identical for every worker count, and are pinned by the
// golden files under testdata/golden. With -state <dir> the
// campaign phase is incremental across runs: each system's outcomes are
// persisted as a snapshot (internal/campaignstore) and replayed on the
// next run, re-executing only what the constraint delta selects. The
// state directory is guarded by an exclusive writer lock — a concurrent
// run fails fast instead of silently racing snapshot saves.
//
// # Distributed table pipeline
//
// A campaign split across processes or machines is spexinj's job: run
// `spexinj -all -shard i/N -state <dir>` once per shard, fold the shard
// directories with spexmerge, and render from the merged store, which
// replays every outcome at zero fresh simulated cost and renders tables
// byte-identical to an unsharded run's:
//
//	spexinj -all -shard 1/2 -state /tmp/s1   # machine 1
//	spexinj -all -shard 2/2 -state /tmp/s2   # machine 2
//	spexmerge -out /var/lib/spex /tmp/s1 /tmp/s2
//	spexeval -state /var/lib/spex            # replays 100%
//
// Usage:
//
//	spexeval               # everything
//	spexeval -table 5      # one table
//	spexeval -figure 7     # one figure
//	spexeval -workers 8 -progress
//	spexeval -state /var/lib/spex   # persistent incremental campaigns
//	spexeval -index -state /var/lib/spex # render from the outcome indexes,
//	                                     # read-only (no writer lock taken)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"spex/internal/campaignstore"
	"spex/internal/obs"
	"spex/internal/progressui"
	"spex/internal/report"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		tableN     = flag.Int("table", 0, "render only this table (1-12)")
		figureN    = flag.Int("figure", 0, "render only this figure (1-7)")
		workers    = flag.Int("workers", 0, "width of the inference fan-out and of the one cross-target campaign pool (0 = one per CPU)")
		progress   = flag.Bool("progress", false, "render campaign progress to stderr (per-system bars on a terminal)")
		state      = flag.String("state", "", "state directory for persistent incremental campaigns (snapshots replay across runs)")
		index      = flag.Bool("index", false, "render tables and figures from the store's outcome indexes without replaying snapshots — read-only: takes no writer lock, runs no campaign (requires -state)")
		metricsOut = flag.String("metrics-out", "", "on exit, dump the process metrics registry as JSON to this file (engine, store, and scheduler series)")
	)
	flag.Parse()
	defer func() {
		if *metricsOut == "" {
			return
		}
		if err := obs.Default().WriteJSONFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "spexeval: metrics-out: %v\n", err)
		}
	}()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "spexeval: %v\n", err)
		return 1
	}

	if *index && *state == "" {
		fmt.Fprintln(os.Stderr, "spexeval: -index requires -state (the indexes are built from its snapshots)")
		return 2
	}

	var locks *campaignstore.LockSet
	if *state != "" && !*index {
		store, err := campaignstore.Open(*state)
		if err != nil {
			return fail(err)
		}
		// One writer per state directory, same contract as spexinj. The
		// handle is passed down as the analysis's snapshot-write
		// capability.
		lock, err := store.Lock()
		if err != nil {
			return fail(err)
		}
		defer func() {
			if uerr := lock.Unlock(); uerr != nil {
				fmt.Fprintf(os.Stderr, "spexeval: %v\n", uerr)
			}
		}()
		locks = lock.Set()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var results []*report.SystemResult
	if *index {
		// Index render: inference recomputes (deterministic, cheap), the
		// campaign side comes from the outcome indexes, built from each
		// snapshot once — nothing is replayed or written, no lock is
		// needed. The rendered tables are byte-identical to a -state
		// replay.
		store, err := campaignstore.Open(*state)
		if err != nil {
			return fail(err)
		}
		results, err = report.ReplayFromIndex(ctx, store)
		if err != nil {
			return fail(err)
		}
	} else {
		opts := report.AnalyzeOptions{Workers: *workers, State: locks}
		var finishProgress func()
		if *progress {
			opts.OnCampaignProgress, finishProgress = progressui.Attach(os.Stderr, "spexeval")
		}
		var err error
		results, err = report.AnalyzeAllContext(ctx, opts)
		if finishProgress != nil {
			finishProgress()
		}
		if err != nil {
			return fail(err)
		}
		for _, r := range results {
			if r.StateErr != nil {
				fmt.Fprintf(os.Stderr, "spexeval: warning: %s: snapshot not saved: %v\n", r.Sys.Name(), r.StateErr)
			}
		}
	}

	switch {
	case *tableN != 0:
		// One rendering path with the daemon's /v1/tables text endpoint
		// (report.RenderTableText), pinned by testdata/golden.
		text, err := report.RenderTableText(*tableN, results)
		if err != nil {
			return fail(err)
		}
		fmt.Println(text)
	case *figureN != 0:
		s, err := report.RenderFigureText(*figureN, results)
		if err != nil {
			return fail(err)
		}
		fmt.Println(s)
	default:
		for i := 1; i <= report.MaxTable; i++ {
			if i == 10 {
				continue // rendered together with table 9
			}
			text, err := report.RenderTableText(i, results)
			if err != nil {
				return fail(err)
			}
			fmt.Println(text)
		}
		for i := 1; i <= report.MaxFigure; i++ {
			s, err := report.RenderFigureText(i, results)
			if err != nil {
				return fail(err)
			}
			fmt.Println(s)
		}
	}
	return 0
}
