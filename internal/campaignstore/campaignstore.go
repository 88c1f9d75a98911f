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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
// identity string. The scheduling knob SimCostDelay is excluded — it
// changes how long a campaign takes, not what it measures.
func OptionsID(opts inject.Options) string {
	// "hang=250ms" and "keep-all-logs=false" name options that no longer
	// exist: a hang is signalled, not timed (sim.Hang), and log dumps are
	// always trimmed to vulnerabilities. They stay verbatim because this
	// string is in every snapshot header and in Snapshot.Fingerprint:
	// dropping them would make every existing store re-campaign and
	// change every stored fingerprint.
	return fmt.Sprintf("stop-on-first=%v sort-tests=%v hang=250ms keep-all-logs=false",
		opts.StopOnFirstFailure, opts.SortTests)
}

// New assembles a snapshot for the system from the constraint set and
// campaign options the outcomes were recorded under and the outcomes
// themselves, keyed by inject.CacheKey. Every outcome is stamped with
// the save time — correct for a run that executed or re-validated its
// whole key set; a caller carrying peer outcomes through the save (the
// shard layer) overrides the carried keys' stamps afterwards.
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

// Store is a state directory holding one snapshot file per system,
// <system>.campaign.snap, plus, in memory only, the outcome index of
// each snapshot the store has written or read (LoadIndex); a Store
// opened later on the same directory rebuilds each from its snapshot on
// its first read. A held index is served only while its snapshot file
// keeps the name, size and mtime it was derived from (current), so a
// save by another Store or process on the same directory invalidates it
// like the store's own. Every file is named by its file name, so List
// and LoadIndexAll read no snapshot to name one.
type Store struct {
	dir string

	// mu guards idx, snapshot file name → its index pinned to the file's
	// identity. It is never held across I/O.
	mu  sync.Mutex
	idx map[string]*heldIndex
}

// Open returns the store rooted at dir. It creates nothing: a store
// whose directory does not exist lists no systems, and Lock, the one
// way to the write capability, creates the directory. A Store is safe
// for concurrent use across systems — each system reads and writes only
// its own file.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("campaignstore: empty state directory")
	}
	return &Store{dir: dir, idx: make(map[string]*heldIndex)}, nil
}

// snapSuffix names the snapshot files Save writes. Any other file in
// the state directory — including a <system>.campaign.json document of
// the retired JSON format — is not a snapshot, so its system simply
// campaigns in full again.
const snapSuffix = ".campaign.snap"

// Path returns the named system's snapshot file, <system>.campaign.snap
// in the store's directory. A name that is empty or holds '/', '\', ':'
// or a NUL byte (validName) names no snapshot: a save of it fails and a
// read of it is ErrNotExist, so no name reaches outside the directory,
// shares another system's file or is refused by the file system.
func (s *Store) Path(system string) string {
	return filepath.Join(s.dir, system+snapSuffix)
}

// validName reports whether system names a snapshot file of its own.
func validName(system string) bool {
	return system != "" && !strings.ContainsAny(system, "/\\:\x00")
}

// notExist is ErrNotExist for the system.
func notExist(system string) error {
	return fmt.Errorf("%w for %s", ErrNotExist, system)
}

// Load reads and validates the system's snapshot. It returns ErrNotExist
// when no snapshot was saved yet, ErrStale when the snapshot was written
// under a different schema fingerprint, and a descriptive error for a
// corrupt file. In every error case the returned snapshot is nil and the
// caller must run a full campaign — outcomes are never replayed from a
// snapshot that fails validation.
func (s *Store) Load(system string) (*Snapshot, error) {
	return s.load(system, nil, nil)
}

// load is Load decoding against c (nil: the plain decode). On success
// it records in st, if set, how much of the snapshot took the full
// decode.
func (s *Store) load(system string, c *Canonical, st *Status) (*Snapshot, error) {
	snap, d, err := read(s, system, c, (*SnapshotDecoder).snapshot)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.FullHeader, st.FullDecodes = d.fullHeader, d.fullRecords
	}
	return snap, nil
}

// read is Load, Prepare and LoadIndex's rebuild: it opens the system's
// snapshot (open) and hands the decoder to records, which reads every
// record and the trailer. Its errors are Load's, and it observes every
// read in spex_store_load_*.
func read[T any](s *Store, system string, c *Canonical, records func(*SnapshotDecoder) (T, error)) (v T, d *SnapshotDecoder, err error) {
	start := time.Now()
	defer func() {
		switch {
		case err == nil:
			mLoads.Inc()
			mLoadSeconds.Observe(time.Since(start).Seconds())
		case !errors.Is(err, ErrNotExist):
			mLoadErrors.Inc()
		}
	}()
	if d, err = s.open(system, c); err != nil {
		return v, nil, err
	}
	if v, err = records(d); err != nil {
		return v, nil, err
	}
	return v, d, nil
}

// OpenSnapshot reads the system's snapshot file whole and returns a
// decoder over its records once the header has passed Load's checks:
// magic, schema, constraint fingerprint, and that it names the system.
// Its errors are Load's; the decoder's Next reports a bad record and
// verifies the trailer. It is the read shard.Merge makes of each source
// store, and it is not observed in spex_store_load_*.
func (s *Store) OpenSnapshot(system string) (*SnapshotDecoder, error) {
	return s.open(system, nil)
}

// open is every read of a snapshot file: it reads the system's file
// whole, decodes and validates its header against c (nil: the plain
// decode) and checks that the header names the system.
func (s *Store) open(system string, c *Canonical) (*SnapshotDecoder, error) {
	if !validName(system) {
		return nil, notExist(system)
	}
	data, err := os.ReadFile(s.Path(system))
	if errors.Is(err, os.ErrNotExist) {
		return nil, notExist(system)
	}
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	d, err := newSnapshotDecoder(data, system, c)
	if err != nil {
		return nil, err
	}
	if d.hdr.System != system {
		return nil, fmt.Errorf("campaignstore: snapshot names system %q, want %q", d.hdr.System, system)
	}
	return d, nil
}

// snapshotFiles lists the store's snapshot file names: every
// <system>.campaign.snap whose system is a valid name. A store whose
// directory does not exist has none.
func (s *Store) snapshotFiles() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if system, ok := strings.CutSuffix(e.Name(), snapSuffix); ok && !e.IsDir() && validName(system) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// save is the write behind LockSet.Save, without the scope check.
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
// sorted: each <system>.campaign.snap file names its system, whatever
// its header holds. Load and LoadIndex report a file whose header does
// not parse or names another system.
func (s *Store) List() ([]string, error) {
	names, err := s.snapshotFiles()
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		names[i] = strings.TrimSuffix(name, snapSuffix)
	}
	sort.Strings(names)
	return names, nil
}

// lockName is the store's writer-lock file. It does not end in
// .campaign.snap, so List never mistakes it for a snapshot.
const lockName = ".spex.lock"

// LockPath returns the writer-lock file guarding a state directory —
// the one place the lock file's name is spelled. Callers that need to
// observe the lock from outside (tests asserting a clean release,
// operator tooling deciding whether a directory is claimed) go through
// this instead of hard-coding the name; spexlint's lockcontract
// analyzer flags the literal anywhere outside this package.
func LockPath(dir string) string { return filepath.Join(dir, lockName) }

// LockStaleAfter bounds how long an unrefreshed lock is honored: a
// live holder re-stamps its lock file's mtime every quarter of this
// interval, so a lock whose mtime is older than this belongs to a
// holder that stopped existing without unlocking — crashed, powered
// off, or its PID recycled by an unrelated process (which a liveness
// probe cannot distinguish from the real holder). For foreign hosts
// the mtime age is the only staleness signal; on the same host a dead
// PID is stale immediately. Long campaigns are safe at any duration:
// the refresh keeps a live holder's lock fresh forever.
const LockStaleAfter = 4 * time.Hour

// lockInfo is the lock file's JSON payload, enough to decide staleness
// and to name the holder in the conflict error.
type lockInfo struct {
	PID        int       `json:"pid"`
	Host       string    `json:"host"`
	AcquiredAt time.Time `json:"acquired_at"`
}

// Lock is a held writer lock on a state directory; Unlock releases it.
// While held, a background refresher re-stamps the lock file so the
// staleness age bound never evicts a live holder.
//
// The handle mints the write capability: Save and NewStreamWriter live
// on the LockSet that Set returns, so code that never acquired the
// lock cannot reach the snapshot-write path at all. Read-side methods
// (Load, List, Prepare, LoadIndex, ...) stay on *Store, because the
// read path is designed to be lock-free.
type Lock struct {
	store *Store
	pid   int
	host  string
	stop  chan struct{}
	done  chan struct{}
}

// Lock acquires the store's exclusive writer lock: one writer per state
// directory. Two processes writing the same state directory would
// otherwise silently race their temp+rename saves — each save is
// atomic, but the last writer's snapshot wins wholesale and the loser's
// outcomes are gone. With the lock the second writer fails fast with a
// descriptive error instead.
//
// The claim is a lock file naming this process, and it must be atomic
// WITH its payload: an O_EXCL create followed by a write would expose
// an empty lock file, which a concurrent Lock would read as
// unparsable, deem stale, and delete — two racing starts would both
// "win". Writing the payload to a temp file and hard-linking it into
// place makes the lock appear fully formed or not at all.
//
// Takeover is automatic for stale locks: a same-host holder that is no
// longer alive, an unreadable lock file, or any lock left unrefreshed
// for LockStaleAfter. (Two processes racing the same takeover leave a
// tiny window in which both can think they won; the snapshot layer
// stays consistent even then — saves are atomic and the shard merge
// resolves duplicates freshest-wins — the lock exists to make the race
// loud and rare, not to be a distributed consensus protocol.)
//
// The coordinator's lease layer (internal/coord) reuses this lock: the
// coordinator locks the campaign root and every shard worker locks its
// own shard directory. Lock creates the state directory if it does not
// exist yet; nothing else that only reads a store creates it.
func (s *Store) Lock() (*Lock, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	path := LockPath(s.dir)
	host, _ := os.Hostname()
	data, err := json.Marshal(lockInfo{PID: os.Getpid(), Host: host, AcquiredAt: time.Now().UTC()})
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, lockName+".tmp-*")
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
			l := &Lock{store: s, pid: os.Getpid(), host: host,
				stop: make(chan struct{}), done: make(chan struct{})}
			go l.refresh()
			return l, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("campaignstore: %w", err)
		}
		holder, stale := readLock(path)
		if !stale {
			return nil, fmt.Errorf(
				"campaignstore: %s is locked by pid %d on %s since %s (another campaign is writing this state; remove %s to force)",
				s.dir, holder.PID, holder.Host, holder.AcquiredAt.Format(time.RFC3339), path)
		}
		// Stale: take it over and retry the exclusive link once.
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("campaignstore: %w", err)
		}
	}
	return nil, fmt.Errorf("campaignstore: lost the takeover race for %s", path)
}

// refresh re-stamps the lock file's mtime while the lock is held, so
// the staleness age bound distinguishes a live long-running holder
// (fresh mtime) from one that ceased to exist without unlocking (mtime
// frozen at its last heartbeat). Ownership is re-checked before every
// stamp: after a (documented, tiny-window) takeover race the file is
// someone else's, and refreshing it would keep their successor's lock
// alive past its own death.
func (l *Lock) refresh() {
	defer close(l.done)
	path := LockPath(l.store.dir)
	ticker := time.NewTicker(LockStaleAfter / 4)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
		}
		var info lockInfo
		data, err := os.ReadFile(path)
		if err != nil || json.Unmarshal(data, &info) != nil ||
			info.PID != l.pid || info.Host != l.host {
			continue // gone or taken over: nothing of ours to refresh
		}
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
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

// Unlock releases the lock by removing the lock file — but only if it
// still names this process. After a stale takeover the file belongs to
// the successor; removing it unconditionally would strip the
// successor's protection and reopen the silent save race for a third
// writer. Unlocking twice is harmless.
func (l *Lock) Unlock() error {
	select {
	case <-l.stop:
	default:
		close(l.stop)
		<-l.done
	}
	path := LockPath(l.store.dir)
	var info lockInfo
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	if json.Unmarshal(data, &info) == nil && (info.PID != l.pid || info.Host != l.host) {
		return nil // taken over: the file is the successor's now
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("campaignstore: %w", err)
	}
	return nil
}

// Set mints the write capability under the held lock. With no
// arguments it covers every system in the store — the CLIs' scope, one
// process writing the whole campaign. With a list it covers exactly
// those systems — a daemon job's scope, so a workload that leaks
// outside the systems its job declared fails loudly instead of
// writing.
func (l *Lock) Set(systems ...string) *LockSet {
	ls := &LockSet{store: l.store}
	if len(systems) > 0 {
		ls.systems = make(map[string]bool, len(systems))
		for _, name := range systems {
			ls.systems[name] = true
		}
	}
	return ls
}

// LockSet is the snapshot-write capability, minted by Lock.Set — what
// the pipeline layers (shard.CampaignAll, shard.Merge, coord, report)
// thread instead of the lock itself. It carries no claim of its own:
// the Lock it came from keeps the state directory exclusive, and the
// set only scopes which systems may be written.
type LockSet struct {
	store   *Store
	systems map[string]bool // nil: every system
}

// Store returns the store the set writes to.
func (ls *LockSet) Store() *Store { return ls.store }

// Covers reports whether the set may write the system's snapshot.
func (ls *LockSet) Covers(system string) bool {
	return ls.systems == nil || ls.systems[system]
}

// check refuses a write outside the set's scope.
func (ls *LockSet) check(system string) error {
	if ls.Covers(system) {
		return nil
	}
	covered := make([]string, 0, len(ls.systems))
	for name := range ls.systems {
		covered = append(covered, name)
	}
	sort.Strings(covered)
	return fmt.Errorf("campaignstore: lock set does not cover %q (set covers %s)", system, strings.Join(covered, ", "))
}

// Save writes the snapshot atomically if the set covers its system:
// the binary container streams outcome-by-outcome into a temporary file
// in the state directory, is fsynced, and is renamed over the final
// path. The fsync before the
// rename matters as much as the rename itself: without it a crash
// shortly after Save could leave the rename durable but the data not,
// and Load would find a zero-length snapshot at the final path on every
// subsequent run. With it, the final path only ever holds a complete
// document (or the previous one).
//
// A successful save also holds the system's outcome index, built as
// the records streamed, in the store's memory (see StreamWriter.Close),
// so the store never re-parses what it has just written.
//
// Every save marshals the set and each outcome. shard.CampaignAll does
// not call it for a run that changed nothing it would write
// (Status.Unchanged).
func (ls *LockSet) Save(snap *Snapshot) error {
	if err := ls.check(snap.System); err != nil {
		return err
	}
	return ls.store.save(snap)
}

// Status describes how one system's campaign used the store: Prepare's
// replay decision, and whether shard.CampaignAll saved the result or
// found the snapshot unchanged.
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
	// Pruned is the number of stored outcomes Prepare dropped because
	// their keys left the campaign or they recorded a harness error.
	Pruned int
	// FullHeader and FullDecodes report what of the loaded snapshot
	// Prepare decoded in full rather than matching it against the
	// workload's Canonical: the header's constraint set, and the number
	// of outcome records. A rerun of the workloads that wrote the store
	// reads false and 0.
	FullHeader  bool
	FullDecodes int
	// Saved reports that the updated snapshot was written back.
	Saved bool
	// Unchanged reports that the run would have saved the same set,
	// options and outcomes it loaded, so the snapshot was left as it
	// was: same bytes and mtime, with its older SavedAt and stamps.
	Unchanged bool
	// Path is the snapshot file the run loaded from / saved to.
	Path string
}

// Prepare decides how an incremental run of ms replays the system's
// stored snapshot. On a valid snapshot recorded under the same
// outcome-affecting options (OptionsID) it Diffs the stored constraint
// set against set (the fresh inference) and returns the decoded
// snapshot's own outcome map, with the delta-selected retests, stale
// keys and harness errors deleted in place (counted in Status.Retests
// and Status.Pruned), and its per-key freshness stamps. On a missing,
// invalid or options-mismatched snapshot both maps are nil and
// Status.Fallback says why. This is the one copy of the snapshot-replay
// policy; its caller is shard.CampaignAll, which replays the returned
// outcomes and saves the updated snapshot unless nothing changed.
// keys[i] is ms[i]'s replay identity (inject.CacheKey).
//
// c, the workload's Canonical (nil for none), makes the load cheap
// without changing its result: a header whose constraint bytes are c's
// takes c's set and fingerprint, and a record payload that opens with
// its key's canonical misconfiguration and goes on with the fields
// json.Marshal writes after it (decodeTail) decodes only those fields
// and takes the workload's misconfiguration, which inject.Assemble puts
// on every replay anyway. Every other header or record is decoded in
// full, and Status.FullHeader and Status.FullDecodes count those. The
// fast path rests on one invariant of the writers: a record's payload
// is always json.Marshal of its outcome. A header that decoded to set
// itself (c's set is the workload's) skips the Diff: a set diffed
// against itself retests nothing. The load is observed exactly like
// Load (spex_store_load_seconds and its counters).
//
// keep lists keys outside ms that must survive the prune: a shard
// process running against a store that also holds its peers' outcomes
// (a merged store, or a full store being refreshed one shard at a time)
// must carry the other shards' work through its save, with its
// original stamps, not discard it.
//
// A stored outcome with a harness error (Outcome.Err) is dropped so it
// re-executes: snapshot files are disk input and a merge copies records
// verbatim, so it would otherwise replay forever.
func (s *Store) Prepare(system string, set *constraint.Set, ms []confgen.Misconf, keys []string, opts inject.Options, keep map[string]bool, c *Canonical) (Status, map[string]inject.Outcome, map[string]time.Time) {
	st := Status{Path: s.Path(system)}
	snap, err := s.load(system, c, &st)
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
		return st, nil, nil
	}
	mPrepareReplayed.Add(uint64(len(snap.Outcomes)))
	retest := func(confgen.Misconf) bool { return false }
	if snap.Constraints != set {
		retest = inject.Diff(snap.Constraints, set).Retest()
	}
	st.Replayed = true
	// Evict the delta so it re-executes, and prune entries that left the
	// campaign — but never the keys the caller vouched for.
	current := make(map[string]bool, len(ms)+len(keep))
	for i, m := range ms {
		if retest(m) {
			delete(snap.Outcomes, keys[i])
			st.Retests++
		}
		current[keys[i]] = true
	}
	for k := range keep {
		current[k] = true
	}
	for k, o := range snap.Outcomes {
		if !current[k] || o.Err != "" {
			delete(snap.Outcomes, k)
			st.Pruned++
		}
	}
	mPrepareRetests.Add(uint64(st.Retests))
	return st, snap.Outcomes, snap.Stamps
}
