// Streaming snapshot writes and the outcome-index sidecar. The
// StreamWriter is the one write path for binary snapshots — Save and
// the shard merge both go through it — and it maintains two derived
// artifacts as records pass through: the snapshot fingerprint (folded
// by the encoder) and the system's outcome index, persisted beside the
// snapshot as <system>.campaign.idx. The sidecar is keyed by the
// snapshot file's name, size and mtime; LoadIndex validates that
// identity with one stat call and rebuilds from the snapshot when it
// does not hold, so a sidecar can always be deleted (or go stale via a
// foreign writer) without any loss.
package campaignstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spex/internal/inject"
	"spex/internal/outcomeindex"
)

// indexSuffix is the outcome-index sidecar suffix. It is not the
// snapshot suffix, so List/LoadAll never mistake a sidecar for a
// snapshot.
const indexSuffix = ".campaign.idx"

// IndexPath returns the system's outcome-index sidecar file.
func (s *Store) IndexPath(system string) string {
	return filepath.Join(s.dir, safeName(system)+indexSuffix)
}

// StreamWriter streams one snapshot into the store: Add per outcome in
// ascending key order, then Close to atomically publish the snapshot,
// its fingerprint, and its rebuilt index sidecar. The writer holds one
// outcome in memory at a time (plus the index's compact per-outcome
// projection), which is what lets the shard merge fold arbitrarily
// large shard stores without materializing them.
type StreamWriter struct {
	store *Store
	hdr   *Snapshot
	tmp   *os.File
	enc   *SnapshotEncoder
	idx   *outcomeindex.Builder
	done  bool
}

// NewStreamWriter opens a streaming save for the snapshot's system.
// hdr supplies the header metadata; its Outcomes/Stamps are ignored.
// Like Save, it lives on *Lock: the held writer lock is the only
// capability that can open the snapshot-write path.
func (l *Lock) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	return l.store.newStreamWriter(hdr)
}

// NewStreamWriter opens a streaming save through the per-system
// capability. The header's system must match the lock's scope.
func (l *SystemLock) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	if hdr.System != l.system {
		return nil, fmt.Errorf("campaignstore: lock scoped to system %q cannot stream a snapshot for %q", l.system, hdr.System)
	}
	return l.store.newStreamWriter(hdr)
}

// NewStreamWriter routes the streaming save to the header system's
// write capability in the set.
func (ls *LockSet) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	l, err := ls.System(hdr.System)
	if err != nil {
		return nil, err
	}
	return l.NewStreamWriter(hdr)
}

func (s *Store) newStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	final := s.Path(hdr.System)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(final)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	enc, err := NewSnapshotEncoder(tmp, hdr)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return &StreamWriter{
		store: s,
		hdr:   hdr,
		tmp:   tmp,
		enc:   enc,
		idx: outcomeindex.NewBuilder(outcomeindex.Meta{
			System:         hdr.System,
			SavedAt:        hdr.SavedAt,
			Options:        hdr.Options,
			SetFingerprint: hdr.SetFingerprint,
		}),
	}, nil
}

// Add appends one outcome record (keys strictly ascending).
func (w *StreamWriter) Add(key string, stamp time.Time, out inject.Outcome) error {
	if err := w.enc.Add(key, stamp, out); err != nil {
		return err
	}
	w.idx.Add(key, out)
	return nil
}

// Abort discards the partial write. Safe after Close.
func (w *StreamWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.tmp.Close()
	os.Remove(w.tmp.Name())
}

// Close finalizes the container (terminator, count, CRC), fsyncs,
// renames it over the final path, rewrites the index sidecar, and
// returns the snapshot fingerprint. The fsync before the rename means
// the final path only ever holds a complete snapshot.
func (w *StreamWriter) Close() (string, error) {
	if w.done {
		return "", errors.New("campaignstore: stream writer already closed")
	}
	w.done = true
	defer os.Remove(w.tmp.Name()) // no-op after a successful rename
	fp, err := w.enc.Finish()
	if err != nil {
		w.tmp.Close()
		return "", err
	}
	if err := w.tmp.Sync(); err != nil {
		w.tmp.Close()
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	if err := w.tmp.Close(); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	final := w.store.Path(w.hdr.System)
	if err := os.Rename(w.tmp.Name(), final); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	// Make the rename itself durable. Directory fsync is best-effort:
	// not every platform supports it, and the data fsync above already
	// rules out the dangerous half (durable rename, lost data).
	if d, err := os.Open(w.store.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	// Rebuild the sidecar. Best-effort: the index is derived data that
	// LoadIndex reconstructs from the snapshot if this write fails.
	if fi, err := os.Stat(final); err == nil {
		w.idx.SetFingerprint(fp)
		_ = outcomeindex.WriteFile(w.store.IndexPath(w.hdr.System), &outcomeindex.File{
			Version:   outcomeindex.Version,
			Snap:      filepath.Base(final),
			SnapSize:  fi.Size(),
			SnapMTime: fi.ModTime().UnixNano(),
			Sys:       w.idx.Finish(),
		})
	}
	return fp, nil
}

// Snapshots returns the store's snapshot files keyed by system name —
// strict like LoadAll (an unreadable or misfiled snapshot header is an
// error, because a merge must never silently skip a shard's data), but
// without decoding any outcome records.
func (s *Store) Snapshots() (map[string]string, error) {
	names, err := s.snapshotFiles()
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		system, err := readSystemName(path)
		if err != nil || system == "" {
			return nil, fmt.Errorf("campaignstore: corrupt snapshot for %s", name)
		}
		if base := safeName(system); name != base+snapSuffix {
			return nil, fmt.Errorf("campaignstore: %s names system %q, which belongs in %s",
				name, system, base+snapSuffix)
		}
		out[system] = path
	}
	return out, nil
}

// SnapshotInfo returns the path and stat of the system's snapshot file.
// The (size, mtime) pair is the cache key the daemon's read path
// invalidates on: every save is an atomic rename that changes both.
func (s *Store) SnapshotInfo(system string) (string, os.FileInfo, error) {
	p := s.Path(system)
	fi, err := os.Stat(p)
	if errors.Is(err, os.ErrNotExist) {
		return "", nil, fmt.Errorf("%w for %s", ErrNotExist, system)
	}
	if err != nil {
		return "", nil, fmt.Errorf("campaignstore: %w", err)
	}
	return p, fi, nil
}

// LoadIndex returns the system's outcome index: the persisted sidecar
// when it matches the snapshot on disk, otherwise a rebuild from the
// snapshot (which also rewrites the sidecar, so the next read is
// cheap). Errors mirror Load's — ErrNotExist when the system has no
// snapshot, and any snapshot validation failure surfaces unchanged,
// because an index must never outlive the fail-safe checks of the data
// it summarizes.
func (s *Store) LoadIndex(system string) (*outcomeindex.System, error) {
	path, fi, err := s.SnapshotInfo(system)
	if err != nil {
		return nil, err
	}
	ipath := s.IndexPath(system)
	if f, err := outcomeindex.ReadFile(ipath); err == nil &&
		f.Snap == filepath.Base(path) && f.SnapSize == fi.Size() &&
		f.SnapMTime == fi.ModTime().UnixNano() && f.Sys.System == system {
		return f.Sys, nil
	}
	snap, err := s.Load(system)
	if err != nil {
		return nil, err
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		return nil, err
	}
	sys := outcomeindex.Build(outcomeindex.Meta{
		System:         snap.System,
		Fingerprint:    fp,
		SavedAt:        snap.SavedAt,
		Options:        snap.Options,
		SetFingerprint: snap.SetFingerprint,
	}, snap.Outcomes)
	_ = outcomeindex.WriteFile(ipath, &outcomeindex.File{
		Version:   outcomeindex.Version,
		Snap:      filepath.Base(path),
		SnapSize:  fi.Size(),
		SnapMTime: fi.ModTime().UnixNano(),
		Sys:       sys,
	})
	return sys, nil
}

// LoadIndexAll loads every system's index, sorted by system name.
func (s *Store) LoadIndexAll() ([]*outcomeindex.System, error) {
	systems, err := s.List()
	if err != nil {
		return nil, err
	}
	out := make([]*outcomeindex.System, 0, len(systems))
	for _, name := range systems {
		sys, err := s.LoadIndex(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].System < out[j].System })
	return out, nil
}
