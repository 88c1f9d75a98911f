// Package campaignstore persists SPEX-INJ campaign state across process
// runs, making the paper's "the campaign is a one-time cost" claim
// (§3.1) hold end to end: a snapshot records the inferred constraint
// set together with every recorded outcome, so the next run Diffs a
// fresh inference against the stored set and re-executes only the
// constraints the revision touched. Everything else replays from the
// snapshot at zero simulated cost.
//
// A snapshot is a versioned binary container (codec.go) saved atomically
// (write to a temporary file, then rename) under a state directory, one
// file per target system. Loading is fail-safe: a missing, corrupt,
// truncated or schema-stale snapshot never replays outcomes — Load
// reports why, and the drivers fall back to a full campaign that
// rebuilds the snapshot.
//
// The schema fingerprint covers every encoding a snapshot depends on:
// the store's own layout version, the numeric values of the env-action
// kinds (embedded raw in inject.CacheKey), the reaction encoding
// (persisted inside each Outcome), and the constraint-kind encoding
// (behind constraint IDs and the diff). Renumbering any of them would
// silently remap old snapshots onto wrong meanings, so the fingerprint
// makes such snapshots stale instead.
package campaignstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
)

// SchemaVersion is the snapshot layout version. Bump it on any change
// to the Snapshot structure or the meaning of its fields; old snapshots
// then fail safe into a full campaign.
//
// v2 added per-outcome freshness stamps (Snapshot.Stamps) so a sharded
// campaign's merge resolves duplicate keys by when each outcome was
// actually established, not by whole-snapshot save time.
const SchemaVersion = 2

var (
	// ErrNotExist reports that no snapshot has been saved for the system
	// yet — the normal first-run condition.
	ErrNotExist = errors.New("campaignstore: no snapshot")
	// ErrStale reports that a snapshot exists but was written under a
	// different schema fingerprint and must not be replayed.
	ErrStale = errors.New("campaignstore: snapshot schema is stale")
)

// SchemaFingerprint identifies the encodings this build persists. A
// snapshot whose fingerprint differs was written by an incompatible
// build and is treated as stale.
func SchemaFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "campaignstore schema v%d\n", SchemaVersion)
	// CacheKey embeds raw env-action kind values; renumbering the iota
	// must invalidate old snapshots.
	fmt.Fprintf(h, "env-kinds OccupyPort=%d MakeDir=%d MakeUnreadable=%d EnsureMissing=%d\n",
		confgen.EnvOccupyPort, confgen.EnvMakeDir, confgen.EnvMakeUnreadable, confgen.EnvEnsureMissing)
	// Reactions are persisted as integers inside each Outcome.
	for r := inject.ReactionCrash; r <= inject.ReactionTolerated; r++ {
		fmt.Fprintf(h, "reaction %d=%s\n", int(r), r)
	}
	// Constraint kinds sit behind both constraint identity and the diff.
	for k := constraint.KindBasicType; k <= constraint.KindValueRel; k++ {
		fmt.Fprintf(h, "kind %d=%s\n", int(k), k)
	}
	return fmt.Sprintf("v%d-%s", SchemaVersion, hex.EncodeToString(h.Sum(nil))[:16])
}

// Snapshot is one system's persisted campaign state.
type Snapshot struct {
	// Schema is the writing build's SchemaFingerprint.
	Schema string `json:"schema"`
	// System is the target system's name.
	System string `json:"system"`
	// SavedAt records when the snapshot was written.
	SavedAt time.Time `json:"saved_at"`
	// Options identifies the campaign options the outcomes were recorded
	// under (OptionsID). A run with different outcome-affecting options
	// must not replay them — e.g. a -no-optimizations run measures
	// different SimCost/FailedTest data than an optimized one.
	Options string `json:"options"`
	// SetFingerprint is Constraints.Fingerprint() at save time, both a
	// corruption guard and a cheap "did anything change?" signal.
	SetFingerprint string `json:"set_fingerprint"`
	// Constraints is the inferred constraint set the outcomes were
	// recorded under; a fresh inference run is Diffed against it.
	Constraints *constraint.Set `json:"constraints"`
	// Outcomes holds every recorded outcome keyed by inject.CacheKey.
	Outcomes map[string]inject.Outcome `json:"outcomes"`
	// Stamps records, per outcome key, when that outcome was last
	// executed or re-validated against the current constraint set. A
	// snapshot's own save time says nothing per key once shards carry
	// their peers' outcomes through a save (shard.Workload.Keep): a
	// carried copy keeps its original stamp, so the shard merge's
	// freshest-wins resolution never lets a stale carried copy beat the
	// owning shard's genuinely fresher retest. Keys missing a stamp
	// default to SavedAt on load.
	Stamps map[string]time.Time `json:"stamps,omitempty"`
}

// Fingerprint hashes the snapshot's replay-relevant content: the schema
// fingerprint, system, options identity, constraint-set fingerprint,
// and every outcome keyed by inject.CacheKey — but not SavedAt. Two
// snapshots that would replay identically fingerprint identically, so
// a sharded campaign's merged store can be checked byte-for-byte
// equivalent to an unsharded run's (internal/shard's acceptance test).
func (s *Snapshot) Fingerprint() (string, error) {
	fp := NewFingerprinter(s.Schema, s.System, s.Options, s.SetFingerprint)
	keys := make([]string, 0, len(s.Outcomes))
	for k := range s.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		data, err := json.Marshal(s.Outcomes[k])
		if err != nil {
			return "", fmt.Errorf("campaignstore: %w", err)
		}
		if err := fp.Add(k, data); err != nil {
			return "", err
		}
	}
	return fp.Sum(), nil
}

// OptionsID renders the outcome-affecting campaign options as a stable
// identity string. Scheduling knobs (Workers, Progress, SimCostDelay,
// Cache) are excluded — they change how outcomes are measured, not what
// is measured.
func OptionsID(opts inject.Options) string {
	hang := opts.HangDeadline
	if hang == 0 {
		hang = inject.DefaultHangDeadline // what RunContext will apply
	}
	return fmt.Sprintf("stop-on-first=%v sort-tests=%v hang=%s keep-all-logs=%v",
		opts.StopOnFirstFailure, opts.SortTests, hang, opts.KeepAllLogs)
}

// New assembles a snapshot for the system from the constraint set and
// campaign options the outcomes were recorded under and the result
// cache's exported entries. Every outcome is stamped with the save
// time — correct for a run that executed or re-validated its whole key
// set; a caller carrying peer outcomes through the save (the shard
// layer) overrides the carried keys' stamps afterwards.
func New(system string, set *constraint.Set, opts inject.Options, outcomes map[string]inject.Outcome) *Snapshot {
	now := time.Now().UTC()
	stamps := make(map[string]time.Time, len(outcomes))
	for k := range outcomes {
		stamps[k] = now
	}
	return &Snapshot{
		Schema:         SchemaFingerprint(),
		System:         system,
		SavedAt:        now,
		Options:        OptionsID(opts),
		SetFingerprint: set.Fingerprint(),
		Constraints:    set,
		Outcomes:       outcomes,
		Stamps:         stamps,
	}
}

// Store is a state directory holding one snapshot file per system.
type Store struct {
	dir string
}

// Open prepares a store rooted at dir, creating the directory if
// needed. A Store is safe for concurrent use across systems — each
// system reads and writes only its own file.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("campaignstore: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// snapSuffix names the snapshot files Save writes. Any other file in
// the state directory — including a <system>.campaign.json document of
// the retired JSON format — is not a snapshot, so its system simply
// campaigns in full again.
const snapSuffix = ".campaign.snap"

// safeName flattens a system name into a file-name-safe base.
func safeName(system string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':':
			return '_'
		}
		return r
	}, system)
}

// Path returns the snapshot file for the named system.
func (s *Store) Path(system string) string {
	// System names are short identifiers; flatten anything that would
	// escape the state directory.
	return filepath.Join(s.dir, safeName(system)+snapSuffix)
}

// Load reads and validates the system's snapshot. It returns ErrNotExist
// when no snapshot was saved yet, ErrStale when the snapshot was written
// under a different schema fingerprint, and a descriptive error for a
// corrupt file. In every error case the returned snapshot is nil and the
// caller must run a full campaign — outcomes are never replayed from a
// snapshot that fails validation.
func (s *Store) Load(system string) (*Snapshot, error) {
	start := time.Now()
	snap, err := s.load(system)
	switch {
	case err == nil:
		mLoads.Inc()
		mLoadSeconds.Observe(time.Since(start).Seconds())
	case !errors.Is(err, ErrNotExist):
		mLoadErrors.Inc()
	}
	return snap, err
}

func (s *Store) load(system string) (*Snapshot, error) {
	data, err := os.ReadFile(s.Path(system))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w for %s", ErrNotExist, system)
	}
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	snap, err := decodeBinarySnapshot(data, system)
	if err != nil {
		return nil, err
	}
	if snap.System != system {
		return nil, fmt.Errorf("campaignstore: snapshot names system %q, want %q", snap.System, system)
	}
	return snap, nil
}

// LoadAll reads and validates every snapshot in the store in one pass,
// sorted by system name — the shard-merge path, which needs the full
// documents and must not parse each file twice (once to list, once to
// load). Unlike List it is strict: an unreadable, corrupt, stale, or
// misfiled snapshot fails the whole call, because a merge must never
// silently skip a shard's data.
func (s *Store) LoadAll() ([]*Snapshot, error) {
	names, err := s.snapshotFiles()
	if err != nil {
		return nil, err
	}
	var snaps []*Snapshot
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, fmt.Errorf("campaignstore: %w", err)
		}
		snap, err := decodeBinarySnapshot(data, name)
		if err != nil {
			return nil, err
		}
		if base := safeName(snap.System); name != base+snapSuffix {
			return nil, fmt.Errorf("campaignstore: %s names system %q, which belongs in %s",
				name, snap.System, base+snapSuffix)
		}
		snaps = append(snaps, snap)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].System < snaps[j].System })
	return snaps, nil
}

// snapshotFiles lists the store's snapshot file names.
func (s *Store) snapshotFiles() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), snapSuffix) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Save writes the snapshot atomically: the binary container streams
// outcome-by-outcome into a temporary file in the state directory, is
// fsynced, and is renamed over the final path. The fsync before the
// rename matters as much as the rename itself: without it a crash
// shortly after Save could leave the rename durable but the data not,
// and Load would find a zero-length snapshot at the final path on every
// subsequent run. With it, the final path only ever holds a complete
// document (or the previous one).
//
// A successful save also rebuilds the system's outcome-index sidecar,
// so the daemon's read path never re-parses what was just written.
//
// Save lives on *Lock, not *Store: the held writer lock is the one
// capability for snapshot writes, so the "lock before you write" rule
// is a type-system fact instead of a convention (and spexlint's
// lockcontract analyzer can check the acquisition side).
func (l *Lock) Save(snap *Snapshot) error { return l.store.save(snap) }

func (s *Store) save(snap *Snapshot) error {
	start := time.Now()
	if err := s.saveBinary(snap); err != nil {
		mSaveErrors.Inc()
		return err
	}
	mSaves.Inc()
	mSaveSeconds.Observe(time.Since(start).Seconds())
	if fi, statErr := os.Stat(s.Path(snap.System)); statErr == nil {
		mSnapshotBytes.Observe(float64(fi.Size()))
	}
	return nil
}

func (s *Store) saveBinary(snap *Snapshot) error {
	w, err := s.newStreamWriter(snap)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(snap.Outcomes))
	for k := range snap.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		stamp := snap.Stamps[k]
		if stamp.IsZero() {
			stamp = snap.SavedAt
		}
		if err := w.Add(k, stamp, snap.Outcomes[k]); err != nil {
			w.Abort()
			return err
		}
	}
	_, err = w.Close()
	return err
}

// WriteJSON persists an advisory JSON document atomically: marshalled
// with indentation, written to a temp file in the target's directory,
// and renamed into place, so a concurrent reader never sees a torn
// document. This is the write path for the coordination and service
// files that live beside the snapshots (leases, heartbeats, the
// daemon's job journal) — unlike Save there is no fsync, because the
// snapshots carry the real outcomes and these documents are
// reconstructible bookkeeping.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("campaignstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	return nil
}

// List returns the name of every system with a snapshot in the store,
// sorted. File names are flattened (Path), so the name is read from
// each snapshot document; files that do not minimally parse are
// skipped — Load will report them properly when asked.
func (s *Store) List() ([]string, error) {
	names, err := s.snapshotFiles()
	if err != nil {
		return nil, err
	}
	var systems []string
	for _, name := range names {
		system, err := readSystemName(filepath.Join(s.dir, name))
		if err != nil || system == "" {
			continue
		}
		systems = append(systems, system)
	}
	sort.Strings(systems)
	return systems, nil
}

// readSystemName extracts the system name from a snapshot file's
// header frame without touching the outcome records.
func readSystemName(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, snapMagic) {
		return "", fmt.Errorf("campaignstore: %s is not a snapshot", path)
	}
	head, err := readFrame(br)
	if err != nil {
		return "", fmt.Errorf("campaignstore: corrupt header in %s: %v", path, err)
	}
	var hdr struct {
		System string `json:"system"`
	}
	if err := json.Unmarshal(head, &hdr); err != nil {
		return "", err
	}
	return hdr.System, nil
}

// lockName is the store's exclusive-writer mark. It does not end in
// .campaign.snap, so List/LoadAll never mistake it for a snapshot. The
// same suffix names the per-system lock files (<system>.spex.lock), so
// a directory scan for held claims is one suffix match.
const lockName = ".spex.lock"

// LockPath returns the whole-directory writer-lock file guarding a
// state directory — the one place the lock file's name is spelled
// (SystemLockPath derives the per-system spelling from it). Callers
// that need to observe the lock from outside (tests asserting a clean
// release, operator tooling deciding whether a directory is claimed) go
// through this instead of hard-coding the name; spexlint's lockcontract
// analyzer flags the literal anywhere outside this package.
func LockPath(dir string) string { return filepath.Join(dir, lockName) }

// SystemLockPath returns the per-system writer-lock file for one
// system's snapshot in a state directory. The name is the flattened
// system name plus the same .spex.lock suffix as the directory lock,
// e.g. proxyd.spex.lock.
func SystemLockPath(dir, system string) string {
	return filepath.Join(dir, safeName(system)+lockName)
}

// LockStaleAfter bounds how long an unrefreshed lock is honored: a
// live holder re-stamps its lock file's mtime every quarter of this
// interval, so a lock whose mtime is older than this belongs to a
// holder that stopped existing without unlocking — crashed, powered
// off, or its PID recycled by an unrelated process (which a liveness
// probe cannot distinguish from the real holder). For foreign hosts
// the mtime age is the only staleness signal; on the same host a dead
// PID is stale immediately. Long campaigns are safe at any duration:
// the refresh keeps a live holder's lock fresh forever.
var LockStaleAfter = 4 * time.Hour

// lockInfo is the lock file's JSON payload, enough to decide staleness
// and to name the holder in the conflict error.
type lockInfo struct {
	PID        int       `json:"pid"`
	Host       string    `json:"host"`
	AcquiredAt time.Time `json:"acquired_at"`
}

// claim is one held on-disk lock file: the hard-link acquisition, the
// background refresher that keeps its mtime fresh, and the
// successor-safe release. The whole-directory Lock and the per-system
// SystemLock are both claims — only their scope (and therefore which
// writes they authorize) differs.
type claim struct {
	path string
	pid  int
	host string
	stop chan struct{}
	done chan struct{}
}

// acquire claims path: a lock file naming this process, created
// atomically with its payload (hard-linked into place). what names the
// claimed resource in the conflict error.
//
// The claim must be atomic WITH its payload: an O_EXCL create followed
// by a write would expose an empty lock file, which a concurrent
// acquire would read as unparsable, deem stale, and delete — two racing
// starts would both "win". Writing the payload to a temp file and
// hard-linking it into place makes the lock appear fully formed or not
// at all.
//
// Takeover is automatic for stale locks: a same-host holder that is no
// longer alive, an unreadable lock file, or any lock left unrefreshed
// for LockStaleAfter. (Two processes racing the same takeover leave a
// tiny window in which both can think they won; the snapshot layer
// stays consistent even then — saves are atomic and the shard merge
// resolves duplicates freshest-wins — the lock exists to make the race
// loud and rare, not to be a distributed consensus protocol.)
func acquire(dir, path, what string) (*claim, error) {
	host, _ := os.Hostname()
	data, err := json.Marshal(lockInfo{PID: os.Getpid(), Host: host, AcquiredAt: time.Now().UTC()})
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		err := os.Link(tmp.Name(), path)
		if err == nil {
			c := &claim{path: path, pid: os.Getpid(), host: host,
				stop: make(chan struct{}), done: make(chan struct{})}
			go c.refresh()
			return c, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("campaignstore: %w", err)
		}
		holder, stale := readLock(path)
		if !stale {
			return nil, fmt.Errorf(
				"campaignstore: %s is locked by pid %d on %s since %s (another campaign is writing this state; remove %s to force)",
				what, holder.PID, holder.Host, holder.AcquiredAt.Format(time.RFC3339), path)
		}
		// Stale: take it over and retry the exclusive link once.
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("campaignstore: %w", err)
		}
	}
	return nil, fmt.Errorf("campaignstore: lost the takeover race for %s", path)
}

// refresh re-stamps the lock file's mtime while the claim is held, so
// the staleness age bound distinguishes a live long-running holder
// (fresh mtime) from one that ceased to exist without unlocking (mtime
// frozen at its last heartbeat). Ownership is re-checked before every
// stamp: after a (documented, tiny-window) takeover race the file is
// someone else's, and refreshing it would keep their successor's lock
// alive past its own death.
func (c *claim) refresh() {
	defer close(c.done)
	ticker := time.NewTicker(LockStaleAfter / 4)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		var info lockInfo
		data, err := os.ReadFile(c.path)
		if err != nil || json.Unmarshal(data, &info) != nil ||
			info.PID != c.pid || info.Host != c.host {
			continue // gone or taken over: nothing of ours to refresh
		}
		now := time.Now()
		_ = os.Chtimes(c.path, now, now)
	}
}

// release removes the lock file — but only if it still names this
// process. After a stale takeover the file belongs to the successor;
// removing it unconditionally would strip the successor's protection
// and reopen the silent save race for a third writer. Releasing twice
// is harmless.
func (c *claim) release() error {
	if c.stop != nil {
		select {
		case <-c.stop:
		default:
			close(c.stop)
			<-c.done
		}
	}
	var info lockInfo
	data, err := os.ReadFile(c.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	if json.Unmarshal(data, &info) == nil && (info.PID != c.pid || info.Host != c.host) {
		return nil // taken over: the file is the successor's now
	}
	if err := os.Remove(c.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("campaignstore: %w", err)
	}
	return nil
}

// heldByUs reports whether the lock file at path names this process on
// this host and is not stale — the multi-granularity exemption check.
func heldByUs(path string) bool {
	info, stale := readLock(path)
	if stale {
		return false
	}
	host, _ := os.Hostname()
	return info.PID == os.Getpid() && info.Host == host
}

// Lock is a held whole-directory writer lock; Unlock releases it.
// While held, a background refresher re-stamps the lock file so the
// staleness age bound never evicts a live holder.
//
// The handle is also the write capability: Save and NewStreamWriter
// live on *Lock, so holding the lock is not merely advisory — code
// that never acquired it cannot reach the snapshot-write path at all.
// Read-side methods (Load, List, Prepare, LoadIndex, ...) stay on
// *Store, because the read path is designed to be lock-free.
//
// The directory lock is the coarse end of a two-level hierarchy: it
// covers every system at once and is the right scope for the CLIs (one
// process, the whole campaign). The fine end is SystemLock, the
// per-system write capability the daemon's scheduler claims so jobs
// over disjoint systems can write concurrently. The two levels exclude
// each other across processes — Lock refuses while any live foreign
// per-system claim exists, LockSystem refuses under a live foreign
// directory lock — but one process may claim per-system locks under
// its own directory lock (intent-exclusive dir + exclusive system),
// which is how the daemon nests job claims under its namespace lock.
type Lock struct {
	store *Store
	c     *claim
}

// Store returns the store this lock guards — the handle back to the
// read-side API for callers handed only the write capability.
func (l *Lock) Store() *Store { return l.store }

// Lock acquires the store's exclusive whole-directory writer lock. Two
// processes writing the same state directory would otherwise silently
// race their temp+rename saves — each save is atomic, but the last
// writer's snapshot wins wholesale and the loser's outcomes are gone.
// With the lock the second writer fails fast with a descriptive error
// instead. Acquisition and staleness takeover semantics are acquire's.
//
// A live per-system claim by another process refuses the directory
// lock: the fine-grained writers hold real capabilities the coarse
// lock must not trample. (The check-then-claim window is the same
// loud-and-rare compromise as the takeover race.)
//
// The coordinator's lease layer (internal/coord) reuses this lock: the
// coordinator locks the campaign root and every shard worker locks its
// own shard directory.
func (s *Store) Lock() (*Lock, error) {
	if held, err := s.liveSystemLocks(); err != nil {
		return nil, err
	} else if len(held) > 0 {
		return nil, fmt.Errorf(
			"campaignstore: %s has live per-system locks (%s); a whole-directory lock cannot coexist with them",
			s.dir, strings.Join(held, ", "))
	}
	c, err := acquire(s.dir, filepath.Join(s.dir, lockName), s.dir)
	if err != nil {
		return nil, err
	}
	return &Lock{store: s, c: c}, nil
}

// liveSystemLocks scans the directory for per-system lock files whose
// holders are still live, returning the claimed system file stems.
func (s *Store) liveSystemLocks() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	var held []string
	for _, e := range entries {
		name := e.Name()
		if name == lockName || !strings.HasSuffix(name, lockName) {
			continue
		}
		if _, stale := readLock(filepath.Join(s.dir, name)); !stale {
			held = append(held, strings.TrimSuffix(name, lockName))
		}
	}
	return held, nil
}

// readLock reads the lock file and decides staleness. A missing or
// unreadable file is stale (the next exclusive-link attempt
// arbitrates).
func readLock(path string) (lockInfo, bool) {
	var info lockInfo
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &info) != nil || info.PID == 0 {
		return info, true
	}
	if fi, err := os.Stat(path); err == nil && time.Since(fi.ModTime()) > LockStaleAfter {
		// The holder stopped re-stamping the file LockStaleAfter ago:
		// whatever the PID probe would say (a recycled PID reads as
		// alive), the campaign that took this lock is gone.
		return info, true
	}
	host, _ := os.Hostname()
	if info.Host == host {
		// Same host: probe the holder directly. Signal 0 delivers
		// nothing; it only reports whether the process exists. EPERM
		// means the process exists but belongs to another user — a
		// live holder, not a stale one.
		p, err := os.FindProcess(info.PID)
		if err != nil {
			return info, true
		}
		sigErr := p.Signal(syscall.Signal(0))
		return info, sigErr != nil && !errors.Is(sigErr, syscall.EPERM)
	}
	return info, false
}

// Unlock releases the directory lock (successor-safe, see
// claim.release).
func (l *Lock) Unlock() error { return l.c.release() }

// Set returns the whole-directory lock viewed as a per-system lock
// set covering every system in the store. Unlock on the view is a
// no-op — the directory Lock owns its own release — so the CLIs can
// keep their one-lock lifecycle and still feed the per-system API.
func (l *Lock) Set() *LockSet { return &LockSet{store: l.store, dir: l} }

// SystemLock is a held per-system writer lock: the only write
// capability for that system's snapshot. It carries the same atomic
// hard-link claim, mtime refresh, and stale-takeover semantics as the
// whole-directory Lock, scoped to one snapshot file. Save and
// NewStreamWriter refuse snapshots for any other system, so the
// capability cannot be laundered across systems.
//
// A SystemLock minted from a whole-directory Lock (Lock.Set) has no
// claim of its own; its Unlock is a no-op and the directory lock keeps
// covering it.
type SystemLock struct {
	store  *Store
	system string
	c      *claim // nil for a view minted from a whole-directory Lock
}

// Store returns the store this lock guards.
func (l *SystemLock) Store() *Store { return l.store }

// System returns the system name this lock covers.
func (l *SystemLock) System() string { return l.system }

// Unlock releases the per-system claim (successor-safe). A view minted
// from a whole-directory lock releases nothing.
func (l *SystemLock) Unlock() error {
	if l.c == nil {
		return nil
	}
	return l.c.release()
}

// Save writes the snapshot through the per-system capability. The
// snapshot's system must match the lock's scope.
func (l *SystemLock) Save(snap *Snapshot) error {
	if snap.System != l.system {
		return fmt.Errorf("campaignstore: lock scoped to system %q cannot save a snapshot for %q", l.system, snap.System)
	}
	return l.store.save(snap)
}

// LockSystem acquires the exclusive per-system writer lock for one
// system's snapshot. A live whole-directory lock held by another
// process refuses the claim — but this process's own directory lock is
// exempt: holding the coarse lock and claiming fine locks under it is
// the intent-exclusive pattern the daemon's scheduler uses to run
// disjoint-system jobs concurrently inside one locked namespace.
func (s *Store) LockSystem(system string) (*SystemLock, error) {
	dirPath := filepath.Join(s.dir, lockName)
	if info, stale := readLock(dirPath); !stale && !heldByUs(dirPath) {
		return nil, fmt.Errorf(
			"campaignstore: %s is locked whole-directory by pid %d on %s since %s; a per-system lock cannot coexist with it",
			s.dir, info.PID, info.Host, info.AcquiredAt.Format(time.RFC3339))
	}
	c, err := acquire(s.dir, SystemLockPath(s.dir, system), fmt.Sprintf("system %q in %s", system, s.dir))
	if err != nil {
		return nil, err
	}
	return &SystemLock{store: s, system: system, c: c}, nil
}

// LockSystems claims the per-system locks for every named system,
// all-or-nothing: systems are claimed in sorted order (a global order
// prevents two claimants deadlocking each other's partial sets), and
// any failure releases what was already claimed. Duplicates collapse.
func (s *Store) LockSystems(systems ...string) (*LockSet, error) {
	names := append([]string(nil), systems...)
	sort.Strings(names)
	ls := &LockSet{store: s, locks: make(map[string]*SystemLock, len(names))}
	for _, name := range names {
		if _, ok := ls.locks[name]; ok {
			continue
		}
		l, err := s.LockSystem(name)
		if err != nil {
			_ = ls.Unlock()
			return nil, err
		}
		ls.locks[name] = l
		ls.order = append(ls.order, name)
	}
	return ls, nil
}

// LockSet is a bundle of per-system write capabilities over one store —
// what the pipeline layers (shard.CampaignAll, shard.Merge, coord,
// report) thread instead of the directory lock. It comes in two
// flavors: a restricted set from Store.LockSystems, which covers
// exactly the claimed systems and errors on any other; and a
// whole-directory view from Lock.Set, which covers every system under
// the directory lock's protection.
type LockSet struct {
	store *Store
	dir   *Lock                  // non-nil for a whole-directory view
	locks map[string]*SystemLock // restricted set, keyed by system
	order []string               // claim order (sorted system names)
}

// Store returns the store the set writes to.
func (ls *LockSet) Store() *Store { return ls.store }

// Covers reports whether the set can mint a write capability for the
// system.
func (ls *LockSet) Covers(system string) bool {
	if ls.dir != nil {
		return true
	}
	_, ok := ls.locks[system]
	return ok
}

// Systems lists the systems a restricted set explicitly covers, in
// claim order. A whole-directory view returns nil: it covers all of
// them.
func (ls *LockSet) Systems() []string { return append([]string(nil), ls.order...) }

// System returns the write capability for one system. A restricted set
// errors on a system it never claimed — the caller's workload leaked
// outside its declared lock scope, which must fail loudly rather than
// write unprotected.
func (ls *LockSet) System(system string) (*SystemLock, error) {
	if ls.dir != nil {
		return &SystemLock{store: ls.store, system: system}, nil
	}
	if l, ok := ls.locks[system]; ok {
		return l, nil
	}
	covered := strings.Join(ls.order, ", ")
	if covered == "" {
		covered = "nothing"
	}
	return nil, fmt.Errorf("campaignstore: no per-system lock held for %q (set covers %s)", system, covered)
}

// Save routes the snapshot to its system's write capability.
func (ls *LockSet) Save(snap *Snapshot) error {
	l, err := ls.System(snap.System)
	if err != nil {
		return err
	}
	return l.Save(snap)
}

// Unlock releases every per-system claim the set holds, returning the
// first error. A whole-directory view releases nothing — the directory
// Lock owns its own Unlock.
func (ls *LockSet) Unlock() error {
	var first error
	for _, name := range ls.order {
		if err := ls.locks[name].Unlock(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Status describes how one system's campaign used the store: Prepare's
// replay decision, and whether shard.CampaignAll saved the result.
type Status struct {
	// Replayed reports that a valid snapshot was loaded and the run was
	// incremental.
	Replayed bool
	// Fallback explains why the run was a full campaign instead ("" when
	// Replayed). A plain first run reads "no snapshot (first run)".
	Fallback string
	// Retests is the number of misconfigurations the constraint delta
	// selected for re-execution (0 on a full campaign).
	Retests int
	// Saved reports that the updated snapshot was written back.
	Saved bool
	// Path is the snapshot file the run loaded from / saved to.
	Path string
}

// Prepare seeds cache for an incremental run of ms against the system's
// stored snapshot and returns the Status describing the decision: on a
// valid snapshot recorded under the same outcome-affecting options
// (OptionsID) the recorded outcomes load into the cache, the stored
// constraint set Diffs against set (the fresh inference), the
// delta-selected retests are evicted so they re-execute, and stale
// entries are pruned; on a missing, invalid, or options-mismatched
// snapshot the cache stays empty and Status.Fallback says why — the
// caller runs a full campaign either way, with the cache deciding what
// replays. This is the one copy of the snapshot-replay policy; its
// caller is the cross-target campaign scheduler (internal/shard
// CampaignAll), which saves the updated snapshot afterwards.
//
// keep lists cache keys outside ms that must survive the prune: a shard
// process running against a store that also holds its peers' outcomes
// (a merged store, or a full store being refreshed one shard at a time)
// must carry the other shards' work through its save, not discard it.
//
// The second return value holds the loaded snapshot's per-key freshness
// stamps (nil on fallback): a caller that carries keys through its save
// re-applies their original stamps so carried copies never masquerade
// as fresh.
func (s *Store) Prepare(system string, set *constraint.Set, ms []confgen.Misconf, opts inject.Options, keep map[string]bool, cache *inject.ResultCache) (Status, map[string]time.Time) {
	st := Status{Path: s.Path(system)}
	snap, err := s.Load(system)
	if err == nil && snap.Options != OptionsID(opts) {
		snap, err = nil, fmt.Errorf("campaign options changed (snapshot %q, this run %q)",
			snap.Options, OptionsID(opts))
	}
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			st.Fallback = "no snapshot (first run)"
		} else {
			st.Fallback = err.Error()
		}
		mPrepareFallbacks.Inc()
		return st, nil
	}
	cache.LoadSnapshot(snap.Outcomes)
	d := inject.Diff(snap.Constraints, set)
	retests := inject.SelectRetests(ms, d)
	st.Replayed = true
	st.Retests = len(retests)
	mPrepareReplayed.Add(uint64(len(snap.Outcomes)))
	mPrepareRetests.Add(uint64(len(retests)))
	// Evict the delta so it re-executes, and prune entries that left the
	// campaign — but never the keys the caller vouched for.
	for _, m := range retests {
		cache.Delete(inject.CacheKey(m))
	}
	current := make(map[string]bool, len(ms)+len(keep))
	for _, m := range ms {
		current[inject.CacheKey(m)] = true
	}
	for k := range keep {
		current[k] = true
	}
	cache.Retain(current)
	return st, snap.Stamps
}
