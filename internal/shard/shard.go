// Package shard turns the single-process campaign engine into a
// multi-backend system: it partitions the global injection workload
// across processes or machines and merges the shards' persisted state
// back into one canonical store (the ROADMAP's "campaign sharding
// across processes/machines" item, scaling the paper's §3.1 campaign
// beyond one host).
//
// The subsystem has two cooperating pieces:
//
//   - A global cross-target scheduler (CampaignAll): instead of one
//     worker pool per system, every target's misconfigurations flatten
//     into a single task queue feeding one pool. Tasks are interleaved
//     round-robin across targets (Interleave), the boot-lock fairness
//     rule: consecutive tasks hit different targets, so no single
//     target's serialized boot phase (the per-target boot mutex in
//     internal/targets) backs up the whole pool, and small targets
//     draining early no longer idle workers. Each system is saved the
//     moment its last misconfiguration completes, not after the slowest
//     system finishes.
//
//   - A shard/merge layer (Plan, Merge): Plan deterministically
//     partitions the workload by stable hash of inject.CacheKey, each
//     `spexinj -shard i/N -state dir` process executes one partition
//     and saves per-shard campaignstore snapshots, and Merge folds the
//     shard state directories into one canonical store whose replayed
//     report is identical to an unsharded run's.
//
// The lifecycle is plan → execute → merge: the plan is pure arithmetic
// (any process can compute it from the same inference, no coordinator),
// execution is embarrassingly parallel across shards, and the merge
// validates that the shards actually belong together (same schema
// fingerprint, same constraint set, same outcome-affecting options)
// before folding their outcomes, resolving duplicate keys
// freshest-wins.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/inject"
)

// Plan identifies one shard of an N-way campaign partition. The zero
// value is "unsharded" (Enabled reports false, Owns reports true for
// everything, Apply keeps every workload whole). A plan is either
// arithmetic (Shard/Of, the coordinator-free i/N hash partition) or
// explicit (Keys, a key-set plan): the coordinator's lease layer
// (internal/coord) compiles leases into key-set plans, which is how a
// work-stealing rebalance reassigns misconfigurations mid-campaign
// without re-hashing anything.
type Plan struct {
	// Shard is this process's 1-based shard number.
	Shard int
	// Of is the total number of shards.
	Of int
	// Keys, when non-nil, makes this an explicit key-set plan: the shard
	// owns exactly the listed system-qualified replay identities
	// (GlobalKey), and Shard/Of hashing is ignored. An empty non-nil map
	// owns nothing.
	Keys map[string]bool
}

// GlobalKey qualifies a misconfiguration's replay identity (key, an
// inject.CacheKey) with its system name — the key space explicit
// key-set plans and the coordinator's leases work in. System names
// never contain NUL, so keys cannot collide across systems.
func GlobalKey(system, key string) string {
	return system + "\x00" + key
}

// KeySetPlan builds an explicit plan owning exactly keys (GlobalKey
// strings). The map is used as-is, not copied.
func KeySetPlan(keys map[string]bool) Plan { return Plan{Keys: keys} }

// Owner returns the 0-based shard index the i/N hash partition assigns
// a misconfiguration to: a stable FNV-1a hash of the system name and
// the misconfiguration's replay identity (key, an inject.CacheKey), mod
// n. Every process that ran the same deterministic inference computes
// the same assignment with no coordination; the coordinator uses the
// same function for its initial leases, so a coordinated campaign
// starts from exactly the partition a static -shard run would use.
func Owner(system, key string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(system))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// ParsePlan parses the "i/N" notation of the -shard flag (1-based, so
// "1/2" and "2/2" together cover a two-way split).
func ParsePlan(s string) (Plan, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Plan{}, fmt.Errorf("shard: plan %q is not of the form i/N", s)
	}
	idx, err1 := strconv.Atoi(s[:i])
	of, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil {
		return Plan{}, fmt.Errorf("shard: plan %q is not of the form i/N", s)
	}
	p := Plan{Shard: idx, Of: of}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Validate checks the plan's arithmetic: 1 <= Shard <= Of. Key-set
// plans have no arithmetic to check.
func (p Plan) Validate() error {
	if p.Keys != nil {
		return nil
	}
	if p.Of < 1 || p.Shard < 1 || p.Shard > p.Of {
		return fmt.Errorf("shard: invalid plan %d/%d (want 1 <= i <= N)", p.Shard, p.Of)
	}
	return nil
}

// Enabled reports whether the plan actually partitions (a zero or 1/1
// plan owns everything; any key-set plan partitions, even an empty one).
func (p Plan) Enabled() bool { return p.Keys != nil || p.Of > 1 }

// String renders the plan in the -shard flag's notation; key-set plans
// render their cardinality.
func (p Plan) String() string {
	if p.Keys != nil {
		return fmt.Sprintf("keyset(%d)", len(p.Keys))
	}
	return fmt.Sprintf("%d/%d", p.Shard, p.Of)
}

// Owns reports whether this shard executes the misconfiguration whose
// replay identity is key: for a key-set plan, membership in Keys;
// otherwise the stable i/N hash partition (Owner), so every process
// that ran the same deterministic inference computes the same partition
// with no coordination, each key belongs to exactly one shard, and the
// assignment survives re-runs (a shard's incremental -state re-run
// replays its own outcomes).
func (p Plan) Owns(system, key string) bool {
	if p.Keys != nil {
		return p.Keys[GlobalKey(system, key)]
	}
	if p.Of <= 1 {
		return true
	}
	return Owner(system, key, p.Of) == p.Shard-1
}

// Apply restricts a full campaign's workloads to this shard. Each
// returned workload keeps the misconfigurations the plan owns, in input
// order, with their replay keys, and vouches for the full campaign's
// keys (Keep), so a shard run against a store holding its peers'
// outcomes preserves them. A plan that does not partition returns ws
// itself. ws is never modified.
func (p Plan) Apply(ws []Workload) []Workload {
	if !p.Enabled() {
		return ws
	}
	out := make([]Workload, len(ws))
	for i, w := range ws {
		keys := w.ReplayKeys()
		keep := make(map[string]bool, len(keys))
		out[i] = Workload{Sys: w.Sys, Set: w.Set, Keep: keep}
		for j, key := range keys {
			keep[key] = true
			if p.Owns(w.Sys.Name(), key) {
				out[i].Ms = append(out[i].Ms, w.Ms[j])
				out[i].Keys = append(out[i].Keys, key)
			}
		}
	}
	return out
}

// MergeStat describes how one system's shards folded together.
type MergeStat struct {
	// System is the target system's name.
	System string
	// Shards is how many source snapshots contributed.
	Shards int
	// Outcomes is the merged snapshot's outcome count.
	Outcomes int
	// Duplicates counts outcome keys that appeared in more than one
	// shard and were resolved freshest-wins (0 in the canonical flow —
	// a plan assigns each key to exactly one shard and fresh shard
	// stores hold only their own outcomes; merging refreshed copies of
	// a merged store, where every snapshot carries every key, produces
	// them wholesale).
	Duplicates int
	// Path is the merged snapshot file.
	Path string
	// Fingerprint is the merged snapshot's replay-equivalence hash
	// (campaignstore.Snapshot.Fingerprint), folded record-by-record by
	// the streaming writer — equal to an unsharded run's store
	// fingerprint when the shards covered the same campaign.
	Fingerprint string
}

// source is one shard directory's snapshot file for a system.
type source struct{ dir, path string }

// mergeCursor is one shard file's read position in the k-way merge:
// the streaming iterator plus its current record.
type mergeCursor struct {
	dir  string
	it   *campaignstore.SnapshotIter
	key  string
	st   time.Time
	out  inject.Outcome
	done bool
}

// advance loads the cursor's next record.
func (c *mergeCursor) advance() error {
	key, st, out, err := c.it.Next()
	if errors.Is(err, io.EOF) {
		c.done = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("shard: %s: %w", c.dir, err)
	}
	c.key, c.st, c.out = key, st, out
	return nil
}

// Merge folds shard state directories into one canonical store —
// addressed by its write capability (dst), minted from the store's held
// writer lock; callers acquire it with campaignstore.Store.Lock before
// merging, exactly like any other writer. For every system dst covers
// with a snapshot in any source directory, the shards' records fold into a single snapshot via a k-way streaming
// merge — every source file's records arrive in ascending key order
// (the binary container's invariant), so the merge holds one record per
// shard in memory and writes the result through the store's streaming
// writer, never materializing any shard's full outcome set.
//
// Validation is strict — all of a system's shards must carry this
// build's schema fingerprint (the iterator's header check enforces it),
// the same constraint-set fingerprint, and the same outcome-affecting
// options identity (campaignstore OptionsID); mixing an optimized shard
// with a -no-optimizations shard is an error, not a silent blend.
// Duplicate outcome keys resolve freshest-wins by each outcome's own
// stamp (Snapshot.Stamps — when it was last executed or re-validated,
// NOT when its snapshot happened to be saved, so a shard that merely
// carried a peer's outcome through its save can never shadow the peer's
// fresher retest; exactly-equal stamps tie-break to the
// lexicographically greatest source directory, so the merge result is a
// function of the shard set, not of the order the directories were
// listed in), and the merged snapshot replays exactly like an unsharded
// run's — its fingerprint, folded record-by-record during the write, is
// identical to an unsharded run's store fingerprint.
func Merge(dst *campaignstore.LockSet, srcDirs []string) ([]MergeStat, error) {
	if dst == nil {
		return nil, errors.New("shard: merge needs the destination store's write capability")
	}
	if len(srcDirs) == 0 {
		return nil, errors.New("shard: no shard directories to merge")
	}

	bySystem := map[string][]source{}
	var systems []string
	for _, dir := range srcDirs {
		// Sources must already exist — Open would create a typo'd path
		// as an empty directory before the "no snapshots" error lands.
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("shard: %s is not a shard state directory", dir)
		}
		store, err := campaignstore.Open(dir)
		if err != nil {
			return nil, err
		}
		paths, err := store.Snapshots()
		if err != nil {
			return nil, fmt.Errorf("shard: %s: %w", dir, err)
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("shard: %s holds no campaign snapshots", dir)
		}
		for system, path := range paths {
			// Shard directories outlive their campaign: a system outside
			// dst's scope is an earlier campaign's, not this merge's.
			if !dst.Covers(system) {
				continue
			}
			if len(bySystem[system]) == 0 {
				systems = append(systems, system)
			}
			bySystem[system] = append(bySystem[system], source{dir: dir, path: path})
		}
	}
	sort.Strings(systems)

	var stats []MergeStat
	for _, system := range systems {
		stat, err := mergeSystem(dst, system, bySystem[system])
		if err != nil {
			return nil, err
		}
		stats = append(stats, stat)
	}
	return stats, nil
}

// mergeSystem streams one system's shard files into the destination
// store.
func mergeSystem(dst *campaignstore.LockSet, system string, srcs []source) (MergeStat, error) {
	cursors := make([]*mergeCursor, 0, len(srcs))
	defer func() {
		for _, c := range cursors {
			c.it.Close()
		}
	}()
	for _, src := range srcs {
		it, err := campaignstore.OpenSnapshotIter(src.path, system)
		if err != nil {
			return MergeStat{}, fmt.Errorf("shard: %s: %w", src.dir, err)
		}
		c := &mergeCursor{dir: src.dir, it: it}
		cursors = append(cursors, c)
		if err := c.advance(); err != nil {
			return MergeStat{}, err
		}
	}
	first := cursors[0]
	for _, c := range cursors[1:] {
		if c.it.Header().Options != first.it.Header().Options {
			return MergeStat{}, fmt.Errorf(
				"shard: %s: shards disagree on campaign options (%s has %q, %s has %q) — refusing to merge",
				system, first.dir, first.it.Header().Options, c.dir, c.it.Header().Options)
		}
		if c.it.Header().SetFingerprint != first.it.Header().SetFingerprint {
			return MergeStat{}, fmt.Errorf(
				"shard: %s: shards disagree on the constraint set (%s has %s, %s has %s) — refusing to merge",
				system, first.dir, first.it.Header().SetFingerprint, c.dir, c.it.Header().SetFingerprint)
		}
	}

	w, err := dst.NewStreamWriter(&campaignstore.Snapshot{
		Schema:         campaignstore.SchemaFingerprint(),
		System:         system,
		SavedAt:        time.Now().UTC(),
		Options:        first.it.Header().Options,
		SetFingerprint: first.it.Header().SetFingerprint,
		Constraints:    first.it.Header().Constraints,
	})
	if err != nil {
		return MergeStat{}, err
	}
	outcomes, duplicates := 0, 0
	for {
		// The frontier: the smallest key any cursor is parked on.
		var min string
		live := false
		for _, c := range cursors {
			if c.done {
				continue
			}
			if !live || c.key < min {
				min, live = c.key, true
			}
		}
		if !live {
			break
		}
		// All cursors holding the frontier key compete; the freshest
		// stamp wins, equal stamps tie-break to the lexicographically
		// greatest shard directory (independent of srcDirs order).
		var win *mergeCursor
		for _, c := range cursors {
			if c.done || c.key != min {
				continue
			}
			if win == nil {
				win = c
				continue
			}
			duplicates++
			if c.st.After(win.st) || (c.st.Equal(win.st) && c.dir > win.dir) {
				win = c
			}
		}
		if err := w.Add(min, win.st, win.out); err != nil {
			w.Abort()
			return MergeStat{}, err
		}
		outcomes++
		for _, c := range cursors {
			if !c.done && c.key == min {
				if err := c.advance(); err != nil {
					w.Abort()
					return MergeStat{}, err
				}
			}
		}
	}
	fp, err := w.Close()
	if err != nil {
		return MergeStat{}, err
	}
	return MergeStat{
		System:      system,
		Shards:      len(cursors),
		Outcomes:    outcomes,
		Duplicates:  duplicates,
		Path:        dst.Store().Path(system),
		Fingerprint: fp,
	}, nil
}
