// Streaming snapshot writes and the outcome-index cache. The
// StreamWriter is the one write path for binary snapshots — Save and
// the shard merge both go through it — and it maintains two derived
// artifacts as records pass through: the snapshot fingerprint (folded
// by the encoder) and the system's outcome index. Close keeps the index
// in the store's memory and persists it beside the snapshot as
// <system>.campaign.idx. Both copies are keyed by the snapshot file's
// name, size and mtime; LoadIndex validates that identity with one stat
// call and rebuilds from the snapshot when neither copy matches it, so
// a sidecar can always be deleted (or go stale via a foreign writer)
// without any loss. A held index also names its file for List and
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

// indexSuffix is the outcome-index sidecar suffix. It is not the
// snapshot suffix, so List/Snapshots never mistake a sidecar for a
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

// NewStreamWriter opens a streaming save for the snapshot's system if
// the set covers it. hdr supplies the header metadata; its
// Outcomes/Stamps are ignored.
func (ls *LockSet) NewStreamWriter(hdr *Snapshot) (*StreamWriter, error) {
	if err := ls.check(hdr.System); err != nil {
		return nil, err
	}
	return ls.store.newStreamWriter(hdr)
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
// renames it over the final path, and returns the snapshot fingerprint.
// The fsync before the rename means the final path only ever holds a
// complete snapshot. The index built from the added records is then
// kept under the file's new size and mtime, in the store (so LoadIndex
// answers from memory, not from disk) and in the sidecar (so another
// process or a later Store reads it instead of the snapshot).
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
	// The rename keeps the file's size and mtime, so this is the identity
	// of exactly these bytes, whatever another writer renames later.
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
	// Best-effort: the index is derived data that LoadIndex reconstructs
	// from the snapshot if it is not kept.
	if statErr == nil {
		w.idx.SetFingerprint(fp)
		f := w.store.indexFile(w.hdr.System, fi, w.idx.Finish())
		w.store.hold(f)
		_ = outcomeindex.WriteFile(w.store.IndexPath(w.hdr.System), f)
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

// indexFile pins sys to the identity of the system's snapshot file as
// fi describes it. The store holds this value and persists it as the
// sidecar.
func (s *Store) indexFile(system string, fi os.FileInfo, sys *outcomeindex.System) *outcomeindex.File {
	return &outcomeindex.File{
		Version:   outcomeindex.Version,
		Snap:      filepath.Base(s.Path(system)),
		SnapSize:  fi.Size(),
		SnapMTime: fi.ModTime().UnixNano(),
		Sys:       sys,
	}
}

// current reports whether f, held in memory or read from a sidecar,
// was derived from the snapshot file as fi describes it now: the one
// identity rule (file name, size, mtime). Every save is an atomic
// rename that changes it.
func (s *Store) current(f *outcomeindex.File, fi os.FileInfo) bool {
	return f.Snap == fi.Name() && f.SnapSize == fi.Size() && f.SnapMTime == fi.ModTime().UnixNano()
}

// hold keeps f as the index of its snapshot file until a later save or
// read replaces it.
func (s *Store) hold(f *outcomeindex.File) {
	s.mu.Lock()
	s.idx[f.Snap] = f
	s.mu.Unlock()
}

// held returns the index the store holds for the snapshot file fi
// describes, or nil if it holds none that is current.
func (s *Store) held(fi os.FileInfo) *outcomeindex.File {
	s.mu.Lock()
	f := s.idx[fi.Name()]
	s.mu.Unlock()
	if f == nil || !s.current(f, fi) {
		return nil
	}
	return f
}

// LoadIndex returns the system's outcome index. It stats the snapshot
// once and returns the index the store holds while it is current: one
// the store saved (StreamWriter.Close) or read before. Otherwise it
// reads the sidecar if that is current, or rebuilds the index from the
// snapshot and rewrites the sidecar, and holds the result. Errors
// mirror Load's — ErrNotExist when the system has no snapshot, and any
// snapshot validation failure surfaces unchanged, because an index must
// never outlive the fail-safe checks of the data it summarizes.
func (s *Store) LoadIndex(system string) (*outcomeindex.System, error) {
	fi, err := s.snapshotInfo(system)
	if err != nil {
		return nil, err
	}
	// Two systems can flatten to one file name (Path), so an index
	// serves only the system it names.
	if f := s.held(fi); f != nil && f.Sys.System == system {
		mIndexHits.Inc()
		return f.Sys, nil
	}
	f, err := outcomeindex.ReadFile(s.IndexPath(system))
	if err != nil || f.Sys.System != system || !s.current(f, fi) {
		snap, err := s.Load(system)
		if err != nil {
			return nil, err
		}
		fp, err := snap.Fingerprint()
		if err != nil {
			return nil, err
		}
		f = s.indexFile(system, fi, outcomeindex.Build(outcomeindex.Meta{
			System:         snap.System,
			Fingerprint:    fp,
			SavedAt:        snap.SavedAt,
			Options:        snap.Options,
			SetFingerprint: snap.SetFingerprint,
		}, snap.Outcomes))
		_ = outcomeindex.WriteFile(s.IndexPath(system), f)
	}
	mIndexRebuilds.Inc()
	s.hold(f)
	return f.Sys, nil
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
			out = append(out, f.held.Sys)
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
