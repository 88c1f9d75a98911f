// Command spexmerge folds per-shard campaign state directories into one
// canonical store — the merge step of a distributed injection campaign
// (internal/shard, paper §3.1 scaled across processes/machines).
//
// Each `spexinj -shard i/N -state <dir>` process saves its
// partition's outcomes as campaignstore snapshots
// under its own directory; spexmerge unions them per system into a
// single snapshot that replays exactly like an unsharded run's. The
// merge is validating, not trusting: every shard of a system must carry
// this build's schema fingerprint, the same inferred constraint set,
// and the same outcome-affecting campaign options (an optimized shard
// never silently blends with a -no-optimizations one). Duplicate
// outcome keys — overlapping ad-hoc shards, a shard re-run, or a
// work-stealing race — resolve freshest-wins by each outcome's own
// stamp (when it was last executed, not when its snapshot was saved);
// exactly-equal stamps tie-break to the lexicographically greatest
// shard directory, so the result never depends on argument order.
//
// A coordinated run (`spexinj -coordinate N -state <dir>`) performs
// this merge itself when its workers drain; spexmerge remains the
// manual step for ad-hoc static shards.
//
// Usage:
//
//	spexmerge -out /var/lib/spex /tmp/shard1 /tmp/shard2 [...]
//	spexinj -all -state /var/lib/spex     # replays the merged campaign
//	spexeval -state /var/lib/spex         # renders tables from the merge
package main

import (
	"flag"
	"fmt"
	"os"

	"spex/internal/campaignstore"
	"spex/internal/obs"
	"spex/internal/shard"
)

func main() { os.Exit(run()) }

func run() int {
	out := flag.String("out", "", "destination state directory for the merged store (required)")
	metricsOut := flag.String("metrics-out", "", "on exit, dump the process metrics registry as JSON to this file (store and merge series)")
	flag.Parse()
	defer func() {
		if *metricsOut == "" {
			return
		}
		if err := obs.Default().WriteJSONFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "spexmerge: metrics-out: %v\n", err)
		}
	}()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "spexmerge: -out is required")
		return 2
	}
	dirs := flag.Args()
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "spexmerge: no shard directories given")
		return 2
	}

	// The destination is a writable state directory like any other:
	// merging into a store a live campaign is saving to would silently
	// race the snapshot renames, so take the same writer lock spexinj
	// and spexeval hold.
	dst, err := campaignstore.Open(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexmerge: %v\n", err)
		return 1
	}
	lock, err := dst.Lock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexmerge: %v\n", err)
		return 1
	}
	defer func() {
		if uerr := lock.Unlock(); uerr != nil {
			fmt.Fprintf(os.Stderr, "spexmerge: %v\n", uerr)
		}
	}()

	stats, err := shard.Merge(lock.Set(), dirs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexmerge: %v\n", err)
		return 1
	}
	for _, st := range stats {
		fmt.Printf("%-10s %d outcomes from %d shard(s)", st.System, st.Outcomes, st.Shards)
		if st.Duplicates > 0 {
			fmt.Printf(", %d duplicate keys resolved freshest-wins", st.Duplicates)
		}
		fmt.Printf(" -> %s\n", st.Path)
		fmt.Printf("%-10s store fingerprint %s\n", "", st.Fingerprint)
	}
	return 0
}
