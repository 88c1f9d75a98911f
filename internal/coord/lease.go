// Package coord is the shard coordinator: it launches N shard workers
// as child processes (or goroutines under a pluggable spawner), assigns
// each an initial shard.Plan partition of the injection campaign, and
// rebalances by work stealing when shard runtimes skew — the follow-on
// the ROADMAP named after the static FNV-1a partition (internal/shard),
// whose slowest shard otherwise sets the campaign's wall clock.
//
// The lifecycle is plan → lease → steal → merge:
//
//   - Plan. The caller hands the coordinator the full workload
//     (Config.Workloads, from the same deterministic inference every
//     shard process runs) and the coordinator assigns each
//     misconfiguration to a worker by the same FNV-1a hash a static
//     `spexinj -shard i/N` run uses (shard.Owner), so a coordinated
//     campaign starts from exactly the coordinator-free partition.
//
//   - Lease. Each worker's assignment is persisted as a lease file in
//     the shared state directory (<state>/coord/worker<i>.lease.json):
//     an owner, a generation counter, and the explicit key list, in
//     execution order. Workers restrict the full workload to their
//     lease through an explicit key-set plan (shard.KeySetPlan, then
//     Plan.Apply) and re-read the file between outcomes; progress
//     streams back through heartbeat files (worker<i>.heartbeat.json)
//     listing the keys whose outcomes are recorded.
//
//   - Steal. When a worker drains while another still has more than
//     StealMin pending keys, the coordinator reassigns a deterministic
//     suffix of the laggard's remaining keys: it rewrites the idle
//     worker's lease (generation+1, its old keys plus the stolen ones)
//     first, then shrinks the laggard's lease (generation+1, stolen
//     keys removed), then respawns the idle worker. The laggard's
//     lease watcher picks up the shrink and its scheduler gate yields
//     the stolen keys (inject.ErrYielded) instead of executing them.
//     The write order means a crash between the two writes leaves a
//     key in two leases, never in none: duplicate execution is already
//     safe (the shard merge resolves duplicates freshest-wins by
//     per-outcome stamp), stealing just makes it rare.
//
//   - Merge. When every worker has drained, the coordinator folds the
//     per-worker shard stores (<state>/shard<i>/) into the canonical
//     store at the state root (shard.Merge), so `spexinj -state dir`
//     or `spexeval -state dir` afterwards replays the whole campaign
//     at zero fresh simulated cost.
//
// Cancellation and resume: SIGINT interrupts the workers, each of which
// saves its finished outcomes (the campaignstore contract), and leaves
// the lease files in place. A rerun with the same campaign identity
// (manifest.json records worker count, schema fingerprint, options
// identity, and per-system constraint-set fingerprints) resumes from
// the persisted leases: every worker replays its recorded outcomes from
// its own shard store and executes only what is missing, so nothing is
// re-executed. A rerun whose identity differs re-plans from scratch.
//
// Locking reuses the campaignstore writer lock: the caller holds the
// state root's lock and hands Run the write capability it mints
// (Config.Locks), and every worker locks its own shard directory, so a
// stray concurrent `spexinj -state` run fails fast instead of silently
// racing snapshot saves.
package coord

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spex/internal/shard"
)

// KeyRef addresses one misconfiguration of a distributed campaign: the
// target system plus the misconfiguration's replay identity
// (inject.CacheKey) — the unit leases assign and heartbeats report.
type KeyRef struct {
	System string `json:"system"`
	Key    string `json:"key"`
}

// Global renders the reference in the key space of explicit key-set
// plans (shard.GlobalKey).
func (k KeyRef) Global() string { return shard.GlobalKey(k.System, k.Key) }

// Lease is one worker's current assignment, persisted as
// worker<i>.lease.json in the coordination directory. Only the
// coordinator writes leases; workers re-read them between outcomes and
// yield keys that disappeared (a steal). Generation increases on every
// rewrite, so a worker never acts on an older assignment than the one
// it already holds.
type Lease struct {
	// Worker is the 1-based owner slot.
	Worker int `json:"worker"`
	// Generation counts rewrites of this worker's assignment.
	Generation int `json:"generation"`
	// Keys is the assignment in execution order; a steal removes a
	// suffix of the still-pending keys.
	Keys []KeyRef `json:"keys"`
}

// Heartbeat is one worker's progress report, persisted as
// worker<i>.heartbeat.json beside its lease. Only the owning worker
// writes it; the coordinator polls it to compute the worker's
// remaining work (lease keys minus Done).
type Heartbeat struct {
	Worker int `json:"worker"`
	// Generation is the lease generation the worker last loaded.
	Generation int `json:"generation"`
	// PID identifies the worker process.
	PID int `json:"pid"`
	// UpdatedAt is the last rewrite time.
	UpdatedAt time.Time `json:"updated_at"`
	// Done lists the keys whose outcomes are recorded (executed or
	// replayed from the worker's shard snapshot) — exactly the keys
	// that will persist through the worker's snapshot save.
	Done []KeyRef `json:"done"`
	// Yielded lists keys the worker gave up after a steal
	// (informational; the thief's lease owns them now).
	Yielded []KeyRef `json:"yielded,omitempty"`
}

// manifest pins the campaign identity a set of lease files belongs to.
// A coordinator run whose identity matches resumes from the persisted
// leases; any mismatch re-plans from scratch (the fail-safe default,
// like campaignstore's snapshot validation).
type manifest struct {
	Workers int    `json:"workers"`
	Schema  string `json:"schema"`
	Options string `json:"options"`
	// Systems maps each target to its constraint-set fingerprint.
	Systems map[string]string `json:"systems"`
}

// CoordDirName is the coordination subdirectory under the campaign
// state root holding manifest, lease, heartbeat, and worker log files.
const CoordDirName = "coord"

// LeasePath returns worker i's lease file under the coordination dir.
func LeasePath(coordDir string, worker int) string {
	return filepath.Join(coordDir, fmt.Sprintf("worker%d.lease.json", worker))
}

// HeartbeatPath derives a worker's heartbeat file from its lease path —
// the one path a worker needs to be handed.
func HeartbeatPath(leasePath string) string {
	return strings.TrimSuffix(leasePath, ".lease.json") + ".heartbeat.json"
}

// ShardDir returns worker i's private shard store under the campaign
// state root.
func ShardDir(stateDir string, worker int) string {
	return filepath.Join(stateDir, fmt.Sprintf("shard%d", worker))
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("coord: %s: %w", path, err)
	}
	return nil
}

// ReadLease reads and validates one lease file.
func ReadLease(path string) (*Lease, error) {
	var l Lease
	if err := readJSON(path, &l); err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("coord: no lease at %s", path)
		}
		return nil, err
	}
	if l.Worker < 1 || l.Generation < 1 {
		return nil, fmt.Errorf("coord: %s is not a lease file", path)
	}
	return &l, nil
}

// ReadHeartbeat reads a worker's heartbeat. A missing file is not an
// error — it means the worker has recorded nothing yet — and returns a
// zero heartbeat.
func ReadHeartbeat(path string) (*Heartbeat, error) {
	var h Heartbeat
	if err := readJSON(path, &h); err != nil {
		if os.IsNotExist(err) {
			return &Heartbeat{}, nil
		}
		return nil, err
	}
	return &h, nil
}

// keySet folds key references into the global-key set explicit plans
// consume, dropping duplicates (a crash between the two lease writes
// of a steal can leave a key in two leases; execution handles that,
// bookkeeping just needs set semantics).
func keySet(keys []KeyRef) map[string]bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k.Global()] = true
	}
	return set
}
