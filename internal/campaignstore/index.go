// Streaming snapshot writes and the outcome-index cache. The
// StreamWriter is the one write path for binary snapshots — Save and
// the shard merge both go through it — and it maintains two derived
// values as records pass through: the snapshot fingerprint (folded by
// the encoder) and the system's outcome index. Close keeps the index in
// the store's memory, pinned to the snapshot file's name, size and
// mtime; nothing else is written. LoadIndex validates that identity
// with one stat call and otherwise rebuilds the index from the snapshot
// through Load, so an index is never served past the snapshot's own
// fail-safe checks. A held index also names its file for List and
// LoadIndexAll, so a warm store reads no snapshot header.
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

// StreamWriter streams one snapshot into the store: Add per outcome in
// ascending key order, then Close to atomically publish the snapshot
// and its fingerprint and to hold its outcome index. The writer holds one
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

// NewStreamWriter opens a streaming save for the snapshot's system if
// the set covers it. hdr supplies the header metadata; its
// Outcomes/Stamps are ignored.
func (ls *LockSet) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	if err := ls.check(hdr.System); err != nil {
		return nil, err
	}
	return ls.store.newStreamWriter(hdr, nil)
}

// newStreamWriter opens a streaming save encoding against c (see
// LockSet.Save).
func (s *Store) newStreamWriter(hdr *Snapshot, c *Canonical) (*StreamWriter, error) {
	final := s.Path(hdr.System)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(final)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	enc, err := newSnapshotEncoder(tmp, hdr, c)
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
// renames it over the final path, and returns the snapshot fingerprint.
// The fsync before the rename means the final path only ever holds a
// complete snapshot. The index built from the added records is then
// held under the file's new identity, so LoadIndex answers from memory
// instead of reading back what was just written. Only the store that
// saved holds it: another Store or process rebuilds it from the
// snapshot on its first read.
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
	// The rename keeps the file's size and mtime, so under the final
	// name this is the identity of exactly these bytes, whatever another
	// writer renames later.
	fi, statErr := w.tmp.Stat()
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
	// Best-effort: the index is derived data that LoadIndex rebuilds
	// from the snapshot if it is not held.
	if statErr == nil {
		w.idx.SetFingerprint(fp)
		w.store.hold(filepath.Base(final), fi, w.idx.Finish())
	}
	return fp, nil
}

// Snapshots returns the store's snapshot files keyed by system name,
// without decoding any outcome records. Unlike List it is strict: an
// unreadable or misfiled snapshot header is an error, because a merge
// must never silently skip a shard's data.
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

// snapshotInfo stats the system's snapshot file: the identity every
// index is checked against (current).
func (s *Store) snapshotInfo(system string) (os.FileInfo, error) {
	fi, err := os.Stat(s.Path(system))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w for %s", ErrNotExist, system)
	}
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	return fi, nil
}

// heldIndex is an outcome index pinned to the identity of the snapshot
// file it was derived from: the file's base name, size and mtime.
type heldIndex struct {
	snap  string
	size  int64
	mtime time.Time
	sys   *outcomeindex.System
}

// current reports whether h was derived from the snapshot file as fi
// describes it now: the one identity rule (file name, size, mtime).
// Every save is an atomic rename that changes it.
func (s *Store) current(h *heldIndex, fi os.FileInfo) bool {
	return h.snap == fi.Name() && h.size == fi.Size() && h.mtime.Equal(fi.ModTime())
}

// hold keeps sys as the index of the snapshot file named snap, whose
// size and mtime fi describes, until a later save or read replaces it.
func (s *Store) hold(snap string, fi os.FileInfo, sys *outcomeindex.System) {
	h := &heldIndex{snap: snap, size: fi.Size(), mtime: fi.ModTime(), sys: sys}
	s.mu.Lock()
	s.idx[h.snap] = h
	s.mu.Unlock()
}

// held returns the index the store holds for the snapshot file fi
// describes, or nil if it holds none that is current.
func (s *Store) held(fi os.FileInfo) *outcomeindex.System {
	s.mu.Lock()
	h := s.idx[fi.Name()]
	s.mu.Unlock()
	if h == nil || !s.current(h, fi) {
		return nil
	}
	return h.sys
}

// LoadIndex returns the system's outcome index. It stats the snapshot
// once and returns the index the store holds while it is current: one
// the store saved (StreamWriter.Close) or read before. Otherwise it
// rebuilds the index from the snapshot through Load and holds it.
// Errors are Load's — ErrNotExist when the system has no snapshot,
// ErrStale for another schema, and any other validation failure —
// because an index must never outlive the fail-safe checks of the data
// it summarizes.
func (s *Store) LoadIndex(system string) (*outcomeindex.System, error) {
	fi, err := s.snapshotInfo(system)
	if err != nil {
		return nil, err
	}
	// Two systems can flatten to one file name (Path), so an index
	// serves only the system it names.
	if sys := s.held(fi); sys != nil && sys.System == system {
		mIndexHits.Inc()
		return sys, nil
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
	mIndexRebuilds.Inc()
	s.hold(fi.Name(), fi, sys)
	return sys, nil
}

// LoadIndexAll returns every system's index, sorted by system name. It
// reads the directory once and stats each snapshot file once: a file
// the store holds a current index for is served from memory (one index
// cache hit each), and only the others are named from their headers
// and loaded through LoadIndex. Files whose header does not parse are
// skipped, as in List; any other LoadIndex error is returned.
func (s *Store) LoadIndexAll() ([]*outcomeindex.System, error) {
	files, err := s.walk()
	if err != nil {
		return nil, err
	}
	out := make([]*outcomeindex.System, 0, len(files))
	for _, f := range files {
		if f.held != nil {
			mIndexHits.Inc()
			out = append(out, f.held)
			continue
		}
		sys, err := s.LoadIndex(f.system)
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].System < out[j].System })
	return out, nil
}
