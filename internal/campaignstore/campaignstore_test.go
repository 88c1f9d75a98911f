package campaignstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
)

func basicC(p string) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: constraint.BasicString}
}

func rangeC(p string, min int64) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindRange, Param: p,
		Intervals: []constraint.Interval{{HasMin: true, Min: min, Valid: true}}}
}

func mkSet(cs ...*constraint.Constraint) *constraint.Set {
	s := constraint.NewSet("storefake")
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// misconfs builds n misconfigurations against c, with values cycling
// through good / bad / crash so the campaign produces a mix of
// reactions (including vulnerabilities).
func misconfs(c *constraint.Constraint, n int) []confgen.Misconf {
	values := []string{"good", "bad", "crash"}
	var ms []confgen.Misconf
	for i := 0; i < n; i++ {
		ms = append(ms, confgen.Misconf{
			ID: fmt.Sprintf("m%02d", i), Param: "p",
			Values:   map[string]string{"p": values[i%len(values)]},
			Violates: c,
		})
	}
	return ms
}

func TestSnapshotRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"), rangeC("q", 1))
	outcomes := map[string]inject.Outcome{
		"k1": {Misconf: confgen.Misconf{ID: "m1", Param: "p", Values: map[string]string{"p": "bad"}},
			Reaction: inject.ReactionFuncFailure, FailedTest: "ping", SimCost: 3, LogDump: "ERR x\n"},
		"k2": {Misconf: confgen.Misconf{ID: "m2", Param: "p", Values: map[string]string{"p": "good"}},
			Reaction: inject.ReactionTolerated, SimCost: 3},
	}
	if err := store.save(New("storefake", set, inject.DefaultOptions(), outcomes)); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if snap.System != "storefake" || snap.SetFingerprint != set.Fingerprint() {
		t.Fatalf("snapshot header = %q/%q", snap.System, snap.SetFingerprint)
	}
	if snap.Constraints.Len() != 2 {
		t.Fatalf("constraint set lost entries: %d", snap.Constraints.Len())
	}
	if len(snap.Outcomes) != 2 {
		t.Fatalf("outcomes lost: %d", len(snap.Outcomes))
	}
	o := snap.Outcomes["k1"]
	if o.Reaction != inject.ReactionFuncFailure || o.FailedTest != "ping" || o.SimCost != 3 || o.LogDump != "ERR x\n" {
		t.Fatalf("outcome round trip mangled: %+v", o)
	}
	// The misconfiguration identity survives: recomputing the cache key
	// from the deserialized Misconf matches recomputing it pre-save.
	if inject.CacheKey(o.Misconf) != inject.CacheKey(outcomes["k1"].Misconf) {
		t.Fatal("CacheKey differs after round trip")
	}
}

func TestLoadMissingSnapshot(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("storefake"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestLoadRejectsCorruptSnapshot(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path("storefake"), []byte("{half a docu"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := store.Load("storefake"); err == nil || snap != nil {
		t.Fatalf("corrupt snapshot loaded: %+v, %v", snap, err)
	}
}

func TestLoadRejectsStaleSchema(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot written by a build with a different schema fingerprint
	// must never replay.
	if err := store.save(New("storefake", mkSet(basicC("p")), inject.DefaultOptions(), nil)); err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(store.Path("storefake"))
	if err != nil {
		t.Fatal(err)
	}
	bin = []byte(strings.Replace(string(bin), SchemaFingerprint(), "v0-0123456789abcdef", 1))
	if err := os.WriteFile(store.Path("storefake"), bin, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("storefake"); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
}

// TestJSONSnapshotIsNotASnapshot: the retired JSON document format is
// not read. A leftover <system>.campaign.json is invisible to Load and
// List, so its system campaigns in full again.
func TestJSONSnapshotIsNotASnapshot(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(New("storefake", mkSet(basicC("p")), inject.DefaultOptions(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "storefake.campaign.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("storefake"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Load = %v, want ErrNotExist", err)
	}
	if systems, err := store.List(); err != nil || len(systems) != 0 {
		t.Fatalf("List = %v, %v, want no systems", systems, err)
	}
}

func TestLoadRejectsFingerprintMismatch(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := New("storefake", mkSet(basicC("p")), inject.DefaultOptions(), nil)
	snap.SetFingerprint = "0000000000000000"
	if err := store.save(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("storefake"); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("err = %v, want constraint fingerprint failure", err)
	}
}

// TestLoadRejectsZeroLengthSnapshot: the fail-safe the fsync in Save
// protects — if a crash ever did leave an empty file at the final path,
// Load must refuse it (falling the run back to a full campaign) instead
// of replaying garbage or erroring forever.
func TestLoadRejectsZeroLengthSnapshot(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path("storefake"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("storefake"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("Load of zero-length snapshot = %v, want a corrupt-snapshot error", err)
	}
}

// TestSaveSurvivesReplacement: Save over an existing snapshot goes
// through the temp+fsync+rename path and leaves a loadable document.
func TestSaveSurvivesReplacement(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"))
	for i := 0; i < 3; i++ {
		snap := New("storefake", set, inject.DefaultOptions(), map[string]inject.Outcome{})
		if err := store.save(snap); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if _, err := store.Load("storefake"); err != nil {
		t.Fatalf("load after repeated saves: %v", err)
	}
}

// TestFingerprintIgnoresSavedAt: the replay-equivalence fingerprint must
// be stable across save times (shards save at different moments) but
// sensitive to outcome content.
func TestFingerprintIgnoresSavedAt(t *testing.T) {
	set := mkSet(basicC("p"))
	c := set.Constraints[0]
	ms := misconfs(c, 2)
	outcomes := map[string]inject.Outcome{
		inject.CacheKey(ms[0]): {Misconf: ms[0], Reaction: inject.ReactionGood},
	}
	a := New("storefake", set, inject.DefaultOptions(), outcomes)
	b := New("storefake", set, inject.DefaultOptions(), outcomes)
	b.SavedAt = b.SavedAt.Add(48 * time.Hour)
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("fingerprint changed with SavedAt: %s vs %s", fa, fb)
	}
	b.Outcomes[inject.CacheKey(ms[1])] = inject.Outcome{Misconf: ms[1], Reaction: inject.ReactionCrash}
	fc, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fc == fa {
		t.Error("fingerprint did not change with outcome content")
	}
}

// TestListReturnsSavedSystems: List names every system with a snapshot,
// sorted, skipping files that do not parse.
func TestListReturnsSavedSystems(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha"} {
		snap := New(name, constraint.NewSet(name), inject.DefaultOptions(), map[string]inject.Outcome{})
		if err := store.save(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(store.Path("broken"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "zeta"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("List = %v, want %v", got, want)
	}
}

// TestLockExcludesSecondWriter: the satellite fix for two un-sharded
// runs silently racing temp+rename saves in one state dir — the second
// Lock must fail fast with an error naming the holder.
func TestLockExcludesSecondWriter(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Lock(); err == nil {
		t.Fatal("second Lock on a held store succeeded")
	} else if !strings.Contains(err.Error(), "locked by pid") {
		t.Errorf("conflict error %q does not name the holder", err)
	}
	if err := lock.Unlock(); err != nil {
		t.Fatal(err)
	}
	// Released: the next writer acquires immediately.
	lock2, err := store.Lock()
	if err != nil {
		t.Fatalf("Lock after Unlock: %v", err)
	}
	if err := lock2.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := lock2.Unlock(); err != nil {
		t.Errorf("double Unlock should be harmless, got %v", err)
	}
}

// TestLockStaleTakeover: a lock whose same-host holder is dead (a
// crashed campaign) and a lock that does not parse are both taken over
// instead of wedging the state dir forever.
func TestLockStaleTakeover(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := os.Hostname()
	// PID 1 is init — alive but not ours; use a PID that cannot exist.
	dead, err := json.Marshal(lockInfo{PID: 1 << 30, Host: host, AcquiredAt: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, lockName), dead, 0o644); err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatalf("Lock over a dead holder's file: %v", err)
	}
	lock.Unlock()

	if err := os.WriteFile(filepath.Join(dir, lockName), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	lock, err = store.Lock()
	if err != nil {
		t.Fatalf("Lock over an unparsable lock file: %v", err)
	}
	lock.Unlock()

	// Age backstop: even a probe-alive same-host PID goes stale once
	// the lock file stops being refreshed — the PID-reuse escape hatch.
	// Staleness keys on the file's mtime (live holders re-stamp it), so
	// the test ages the mtime, not just the recorded AcquiredAt.
	aged, err := json.Marshal(lockInfo{PID: os.Getpid(), Host: host,
		AcquiredAt: time.Now().UTC().Add(-2 * LockStaleAfter)})
	if err != nil {
		t.Fatal(err)
	}
	lockPath := filepath.Join(dir, lockName)
	if err := os.WriteFile(lockPath, aged, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * LockStaleAfter)
	if err := os.Chtimes(lockPath, old, old); err != nil {
		t.Fatal(err)
	}
	lock, err = store.Lock()
	if err != nil {
		t.Fatalf("Lock over an expired same-host lock: %v", err)
	}
	lock.Unlock()
}

// TestLockForeignHostHonored: a fresh lock from another host cannot be
// probed and must be honored; only age makes it stale.
func TestLockForeignHostHonored(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := json.Marshal(lockInfo{PID: 1, Host: "some-other-host", AcquiredAt: time.Now().UTC()})
	if err := os.WriteFile(filepath.Join(dir, lockName), fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Lock(); err == nil {
		t.Error("fresh foreign-host lock was not honored")
	}
	expired, _ := json.Marshal(lockInfo{PID: 1, Host: "some-other-host",
		AcquiredAt: time.Now().UTC().Add(-2 * LockStaleAfter)})
	lockPath := filepath.Join(dir, lockName)
	if err := os.WriteFile(lockPath, expired, 0o644); err != nil {
		t.Fatal(err)
	}
	// An unrefreshed lock's mtime freezes at its last heartbeat.
	frozen := time.Now().Add(-2 * LockStaleAfter)
	if err := os.Chtimes(lockPath, frozen, frozen); err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Errorf("expired foreign-host lock was not taken over: %v", err)
	} else {
		lock.Unlock()
	}
}

// TestLockSetScope: a set minted for named systems writes only their
// snapshots, loudly refusing any other system through both write
// paths; a set minted without names writes every system.
func TestLockSetScope(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Unlock()
	snap := func(system string) *Snapshot {
		return New(system, mkSet(basicC("p")), inject.DefaultOptions(), map[string]inject.Outcome{})
	}
	stream := func(ls *LockSet, system string) error {
		w, err := ls.NewStreamWriter(snap(system))
		if err != nil {
			return err
		}
		_, err = w.Close()
		return err
	}

	scoped := lock.Set("ldapd")
	if scoped.Covers("proxyd") || !scoped.Covers("ldapd") {
		t.Fatal("Set(\"ldapd\") covers the wrong systems")
	}
	if err := scoped.Save(snap("proxyd")); err == nil || !strings.Contains(err.Error(), `does not cover "proxyd"`) {
		t.Errorf("scoped Save for proxyd: %v", err)
	}
	if err := stream(scoped, "proxyd"); err == nil || !strings.Contains(err.Error(), `does not cover "proxyd"`) {
		t.Errorf("scoped NewStreamWriter for proxyd: %v", err)
	}
	if _, err := os.Stat(store.Path("proxyd")); !os.IsNotExist(err) {
		t.Fatalf("a refused write left a proxyd snapshot: %v", err)
	}
	if err := scoped.Save(snap("ldapd")); err != nil {
		t.Errorf("scoped Save for ldapd: %v", err)
	}
	if err := stream(scoped, "ldapd"); err != nil {
		t.Errorf("scoped NewStreamWriter for ldapd: %v", err)
	}

	all := lock.Set()
	for _, system := range []string{"ldapd", "proxyd"} {
		if err := all.Save(snap(system)); err != nil {
			t.Errorf("Set().Save for %s: %v", system, err)
		}
		if err := stream(all, system); err != nil {
			t.Errorf("Set().NewStreamWriter for %s: %v", system, err)
		}
	}
	if systems, err := store.List(); err != nil || len(systems) != 2 {
		t.Errorf("List = %v, %v; want ldapd and proxyd", systems, err)
	}
}

// TestLockFileInvisibleToStore: the lock file must never be mistaken
// for a snapshot by List or Snapshots.
func TestLockFileInvisibleToStore(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Unlock()
	if systems, err := store.List(); err != nil || len(systems) != 0 {
		t.Errorf("List = %v, %v with only a lock file present", systems, err)
	}
	if snaps, err := store.Snapshots(); err != nil || len(snaps) != 0 {
		t.Errorf("Snapshots = %d snaps, %v with only a lock file present", len(snaps), err)
	}
}

// TestUnlockAfterTakeoverLeavesSuccessorLock: a holder whose lock was
// taken over (age backstop) must not delete the successor's lock on
// its own way out.
func TestUnlockAfterTakeoverLeavesSuccessorLock(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldLock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the successor's takeover: replace the file with another
	// holder's claim.
	host, _ := os.Hostname()
	successor, _ := json.Marshal(lockInfo{PID: os.Getpid() + 1, Host: host, AcquiredAt: time.Now().UTC()})
	if err := os.WriteFile(filepath.Join(dir, lockName), successor, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := oldLock.Unlock(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, lockName)); err != nil {
		t.Errorf("the displaced holder's Unlock removed the successor's lock: %v", err)
	}
}

// TestOptionsIDText pins the options identity, which every snapshot
// header and fingerprint carries. "hang=250ms" and "keep-all-logs=false"
// name options that no longer exist and stay verbatim, so no store
// re-campaigns; SimCostDelay is scheduling, not identity.
func TestOptionsIDText(t *testing.T) {
	opts := inject.DefaultOptions()
	if got, want := OptionsID(opts), "stop-on-first=true sort-tests=true hang=250ms keep-all-logs=false"; got != want {
		t.Errorf("default OptionsID = %q, want %q", got, want)
	}
	opts.SimCostDelay = time.Millisecond
	if got := OptionsID(opts); got != OptionsID(inject.DefaultOptions()) {
		t.Errorf("SimCostDelay changed the identity to %q", got)
	}
	// spexinj -no-optimizations turns both paper optimizations off.
	opts.StopOnFirstFailure, opts.SortTests = false, false
	if got, want := OptionsID(opts), "stop-on-first=false sort-tests=false hang=250ms keep-all-logs=false"; got != want {
		t.Errorf("-no-optimizations OptionsID = %q, want %q", got, want)
	}
}
