// Streaming snapshot writes and the outcome-index cache. The
// StreamWriter is the one write path for binary snapshots — Save and
// the shard merge both go through it — and it maintains two derived
// values as records pass through: the snapshot fingerprint (folded by
// the encoder) and the system's outcome index. Close keeps the index in
// the store's memory, pinned to the snapshot file's name, size and
// mtime; nothing else is written. LoadIndex validates that identity
// with one stat call and otherwise rebuilds the index in one decoder
// pass that feeds the same two sinks, through the read Load makes, so an
// index is never served past the snapshot's own fail-safe checks.
package campaignstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spex/internal/inject"
	"spex/internal/outcomeindex"
)

// StreamWriter streams one snapshot into the store: Add per outcome in
// ascending key order, then Close to atomically publish the snapshot
// and its fingerprint and to hold its outcome index. The writer holds one
// outcome in memory at a time (plus the index's compact per-outcome
// projection), so the shard merge writes its result without building
// an outcome map.
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
	if !validName(hdr.System) {
		return nil, fmt.Errorf("campaignstore: system name %q names no snapshot file", hdr.System)
	}
	final := s.Path(hdr.System)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(final)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	enc, err := newSnapshotEncoder(tmp, hdr)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return &StreamWriter{store: s, hdr: hdr, tmp: tmp, enc: enc, idx: newIndexBuilder(hdr)}, nil
}

// newIndexBuilder starts the outcome index of the snapshot hdr heads;
// its fingerprint is set once the last record has been folded.
func newIndexBuilder(hdr *Snapshot) *outcomeindex.Builder {
	return outcomeindex.NewBuilder(outcomeindex.Meta{
		System:         hdr.System,
		SavedAt:        hdr.SavedAt,
		Options:        hdr.Options,
		SetFingerprint: hdr.SetFingerprint,
	})
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
// rebuilds the index in one pass over the snapshot (SnapshotDecoder.index)
// and holds it. The pass is the read Load makes, so the errors are Load's
// — ErrNotExist when the system has no snapshot, ErrStale for another
// schema, and any other validation failure — because an index must never
// outlive the fail-safe checks of the data it summarizes.
func (s *Store) LoadIndex(system string) (*outcomeindex.System, error) {
	if !validName(system) {
		return nil, notExist(system)
	}
	return s.loadIndex(system, s.Path(system))
}

// loadIndex is LoadIndex of the system whose snapshot file is path.
func (s *Store) loadIndex(system, path string) (*outcomeindex.System, error) {
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, notExist(system)
	}
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	if sys := s.held(fi); sys != nil {
		mIndexHits.Inc()
		return sys, nil
	}
	sys, _, err := read(s, system, nil, (*SnapshotDecoder).index)
	if err != nil {
		return nil, err
	}
	mIndexRebuilds.Inc()
	s.hold(fi.Name(), fi, sys)
	return sys, nil
}

// index reads d's records and builds their outcome index in one pass:
// each record's payload goes to a Fingerprinter and its outcome to an
// outcomeindex.Builder, the two sinks a StreamWriter feeds as it saves.
// The payload is the bytes a save wrote, json.Marshal of the outcome, so
// the fingerprint is the one Snapshot.Fingerprint computes for every file
// a save writes.
func (d *SnapshotDecoder) index() (*outcomeindex.System, error) {
	fp := NewFingerprinter(d.hdr.Schema, d.hdr.System, d.hdr.Options, d.hdr.SetFingerprint)
	b := newIndexBuilder(d.hdr)
	for {
		key, _, payload, out, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := fp.Add(key, payload); err != nil {
			return nil, err
		}
		b.Add(key, out)
	}
	b.SetFingerprint(fp.Sum())
	return b.Finish(), nil
}

// LoadIndexAll returns every system's index, sorted by system name. It
// reads the directory once and stats each snapshot file once; each file
// names its system (List), and a file the store holds a current index
// for is served from memory (one index cache hit each). Any LoadIndex
// error is returned, a snapshot whose header does not parse included,
// except that a file deleted since the directory read is skipped.
func (s *Store) LoadIndexAll() ([]*outcomeindex.System, error) {
	names, err := s.snapshotFiles()
	if err != nil {
		return nil, err
	}
	out := make([]*outcomeindex.System, 0, len(names))
	for _, name := range names {
		sys, err := s.loadIndex(strings.TrimSuffix(name, snapSuffix), filepath.Join(s.dir, name))
		if errors.Is(err, ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].System < out[j].System })
	return out, nil
}
