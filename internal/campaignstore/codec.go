// Binary snapshot container: the one storage format behind Save. It is
// a sequence of length-prefixed records, so a writer emits one outcome
// at a time and a reader finds each record without parsing its JSON:
//
//	magic "SPEXSNP1"
//	uvarint len | header JSON   (schema, system, saved_at, options,
//	                             set_fingerprint, constraints)
//	repeated records, in ascending key order:
//	  uvarint len(key) | key    (len > 0; inject.CacheKey)
//	  varint  stamp             (UnixNano of the outcome's freshness stamp)
//	  uvarint len | outcome JSON (compact json.Marshal of inject.Outcome)
//	uvarint 0                   (terminator)
//	uvarint record count
//	uint32  CRC-32 (IEEE, little-endian) of every preceding byte
//
// Records carry the outcome as compact JSON behind a binary frame: the
// payload bytes are exactly what Snapshot.Fingerprint hashes, so a
// streaming writer folds the fingerprint for free as records pass
// through, and LoadIndex folds it from the stored bytes as they are
// read. The ascending key order is load-bearing twice: it makes the
// fingerprint computable in one pass, and it lets shard.Merge fold k
// shard files with a k-way merge that writes each merged record once.
//
// The file is <system>.campaign.snap, and the header's system must be
// the file's: every read checks it (Store.open, behind Load, Prepare,
// LoadIndex and OpenSnapshot), so a file names its system without
// being read.
//
// The encoder keeps one invariant: a record's payload is
// json.Marshal(outcome), and the header's constraints member, written
// last, is json.Marshal(set). Store.Prepare's decoder leans on it. The
// workload's Canonical (canonical.go) holds those bytes for its set and
// misconfigurations: a header that ends with the canonical set bytes
// decodes only the members before them and takes the workload's set and
// fingerprint, and a payload that opens with {"Misconf": and then
// exactly its key's canonical misconfiguration bytes takes the
// workload's misconfiguration and key string and reads the members after
// them with a strict parser (decodeTail, tail.go) that uses no
// reflection. Every other header or record, a tail decodeTail refuses
// included, and every decode without a Canonical (Load, LoadIndex,
// OpenSnapshot), takes the full json.Unmarshal. Both paths accept the
// same bytes and yield the same fingerprint and outcomes
// (FuzzCanonicalDecode).
//
// Every read reads the whole file and decodes it in place: its key,
// payload and header frames are sub-slices of the file's bytes, not
// copies, and the CRC is one pass over the bytes before the trailer,
// made at the terminator. decodeHeader may patch a byte of the header
// frame and restore it; no decoded value keeps a reference to the
// bytes. Every length prefix is untrusted input: a frame longer than
// what is left of the file is a truncated frame, so a corrupt prefix
// allocates nothing.
package campaignstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"time"

	"spex/internal/inject"
)

// snapMagic opens every binary snapshot file.
var snapMagic = []byte("SPEXSNP1")

// maxFrameLen bounds any single length prefix.
const maxFrameLen = 1 << 30

// Fingerprinter folds Snapshot.Fingerprint incrementally: the same hash
// as the in-memory method, computed record by record in ascending key
// order, so streaming writers (Save, shard.Merge) get the fingerprint
// as a byproduct of encoding instead of a second pass over the store.
// No record is formatted through fmt.
type Fingerprinter struct {
	h       hash.Hash
	last    string
	started bool
	line    []byte
}

// NewFingerprinter starts the hash with the snapshot's header lines.
func NewFingerprinter(schema, system, options, setFingerprint string) *Fingerprinter {
	h := sha256.New()
	fmt.Fprintf(h, "schema %s\nsystem %s\noptions %s\nset %s\n",
		schema, system, options, setFingerprint)
	return &Fingerprinter{h: h}
}

// Add folds one outcome record. outJSON must be the outcome's compact
// json.Marshal bytes; keys must arrive in strictly ascending order. It
// hashes "outcome <len(key)>:<key> <len(outJSON)>:<outJSON>\n".
func (f *Fingerprinter) Add(key string, outJSON []byte) error {
	if f.started && key <= f.last {
		return fmt.Errorf("campaignstore: fingerprint keys out of order (%q after %q)", key, f.last)
	}
	f.started, f.last = true, key
	f.line = append(f.line[:0], "outcome "...)
	f.line = strconv.AppendInt(f.line, int64(len(key)), 10)
	f.line = append(append(append(f.line, ':'), key...), ' ')
	f.line = append(strconv.AppendInt(f.line, int64(len(outJSON)), 10), ':')
	f.h.Write(f.line)
	f.h.Write(outJSON)
	f.h.Write(newline)
	return nil
}

var newline = []byte{'\n'}

// Sum returns the fingerprint accumulated so far.
func (f *Fingerprinter) Sum() string {
	return hex.EncodeToString(f.h.Sum(nil))[:32]
}

// snapshotHeader is the container's header blob — Snapshot minus the
// outcome records. The encoder leaves Constraints empty, so json.Marshal
// omits it, and appends the set's own json.Marshal bytes as the last
// member: the set is marshalled once, not compacted a second time as a
// RawMessage.
type snapshotHeader struct {
	Schema         string          `json:"schema"`
	System         string          `json:"system"`
	SavedAt        time.Time       `json:"saved_at"`
	Options        string          `json:"options"`
	SetFingerprint string          `json:"set_fingerprint"`
	Constraints    json.RawMessage `json:"constraints,omitempty"`
}

// encodeHeader is the header blob of hdr: its members in snapshotHeader's
// order, the constraint set last.
func encodeHeader(hdr *Snapshot) ([]byte, error) {
	rawSet, err := json.Marshal(hdr.Constraints)
	if err != nil {
		return nil, err
	}
	meta, err := json.Marshal(snapshotHeader{
		Schema:         hdr.Schema,
		System:         hdr.System,
		SavedAt:        hdr.SavedAt,
		Options:        hdr.Options,
		SetFingerprint: hdr.SetFingerprint,
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(meta[:len(meta)-1], constraintsMember, rawSet, []byte("}")), nil
}

// crcWriter folds everything written into a running CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// SnapshotEncoder streams one snapshot into a writer: header first,
// then Add per outcome in ascending key order, then Finish. The encoder
// folds the container CRC and the snapshot fingerprint as records pass
// through, so the caller never holds more than one outcome in memory.
type SnapshotEncoder struct {
	bw      *bufio.Writer
	cw      *crcWriter
	fp      *Fingerprinter
	count   int
	last    string
	started bool
	scratch []byte
}

// newSnapshotEncoder writes the magic and header. hdr carries the
// snapshot's metadata; its Outcomes/Stamps are ignored.
func newSnapshotEncoder(w io.Writer, hdr *Snapshot) (*SnapshotEncoder, error) {
	head, err := encodeHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	// The CRC must cover the buffered bytes in write order, so the CRC
	// sits *under* the bufio layer.
	e := &SnapshotEncoder{
		bw: bw,
		cw: cw,
		fp: NewFingerprinter(hdr.Schema, hdr.System, hdr.Options, hdr.SetFingerprint),
	}
	if _, err := bw.Write(snapMagic); err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	if err := e.writeBlob(head); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *SnapshotEncoder) writeUvarint(v uint64) error {
	e.scratch = binary.AppendUvarint(e.scratch[:0], v)
	_, err := e.bw.Write(e.scratch)
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	return nil
}

func (e *SnapshotEncoder) writeBlob(b []byte) error {
	if err := e.writeUvarint(uint64(len(b))); err != nil {
		return err
	}
	if _, err := e.bw.Write(b); err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	return nil
}

// Add appends one outcome record. Keys must be non-empty and strictly
// ascending — the order the fingerprint and the k-way merge depend on.
func (e *SnapshotEncoder) Add(key string, stamp time.Time, out inject.Outcome) error {
	if key == "" {
		return errors.New("campaignstore: empty outcome key")
	}
	if e.started && key <= e.last {
		return fmt.Errorf("campaignstore: outcome keys out of order (%q after %q)", key, e.last)
	}
	e.started, e.last = true, key
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	if err := e.fp.Add(key, data); err != nil {
		return err
	}
	if err := e.writeBlob([]byte(key)); err != nil {
		return err
	}
	e.scratch = binary.AppendVarint(e.scratch[:0], stamp.UnixNano())
	if _, err := e.bw.Write(e.scratch); err != nil {
		return fmt.Errorf("campaignstore: %w", err)
	}
	if err := e.writeBlob(data); err != nil {
		return err
	}
	e.count++
	return nil
}

// Finish writes the terminator, record count, and CRC trailer, flushes,
// and returns the snapshot fingerprint.
func (e *SnapshotEncoder) Finish() (string, error) {
	if err := e.writeUvarint(0); err != nil {
		return "", err
	}
	if err := e.writeUvarint(uint64(e.count)); err != nil {
		return "", err
	}
	if err := e.bw.Flush(); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	// The trailer CRC covers everything up to itself; write it past the
	// CRC fold (directly, the buffer is flushed).
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], e.cw.crc)
	if _, err := e.cw.w.Write(tail[:]); err != nil {
		return "", fmt.Errorf("campaignstore: %w", err)
	}
	return e.fp.Sum(), nil
}

// frames hands the decoder the file's bytes: data is the whole file,
// off how much of it has been consumed, and every frame is a sub-slice
// of data.
type frames struct {
	data []byte
	off  int
}

// ReadByte reads the next byte, for the varints.
func (f *frames) ReadByte() (byte, error) {
	if f.off == len(f.data) {
		return 0, io.EOF
	}
	f.off++
	return f.data[f.off-1], nil
}

// next reads a frame of n bytes.
func (f *frames) next(n uint64) ([]byte, error) {
	switch {
	case n > maxFrameLen:
		return nil, fmt.Errorf("frame length %d exceeds limit", n)
	case n > uint64(len(f.data)-f.off):
		return nil, errors.New("truncated frame")
	}
	b := f.data[f.off : f.off+int(n) : f.off+int(n)]
	f.off += int(n)
	return b, nil
}

// frame reads one uvarint-length-prefixed frame.
func (f *frames) frame() ([]byte, error) {
	n, err := binary.ReadUvarint(f)
	if err != nil {
		return nil, errors.New("truncated length prefix")
	}
	return f.next(n)
}

// SnapshotDecoder decodes a binary snapshot file read whole: opening it
// validates the header (magic, schema staleness, constraint
// fingerprint), then Next yields one record at a time in ascending key
// order; after the last record the trailer's count and CRC are
// verified, so a truncated or bit-flipped file surfaces as an error
// before the caller trusts that it read every record.
type SnapshotDecoder struct {
	in    frames
	hdr   *Snapshot
	label string
	count int
	done  bool
	last  string
	// canon, if set, is what the header and records are matched against
	// before any full decode; fullHeader and fullRecords count what
	// still took it.
	canon       *Canonical
	fullHeader  bool
	fullRecords int
}

// corruptf builds the decoder's uniform corruption error.
func (d *SnapshotDecoder) corruptf(format string, args ...any) error {
	return fmt.Errorf("campaignstore: corrupt snapshot for %s: %s", d.label, fmt.Sprintf(format, args...))
}

// newSnapshotDecoder reads and validates the container header of data,
// a whole snapshot file, matching it against c (nil: the plain decode).
// label names the source in errors.
func newSnapshotDecoder(data []byte, label string, c *Canonical) (*SnapshotDecoder, error) {
	d := &SnapshotDecoder{in: frames{data: data}, label: label, canon: c}
	if magic, err := d.in.next(uint64(len(snapMagic))); err != nil || !bytes.Equal(magic, snapMagic) {
		return nil, d.corruptf("bad magic")
	}
	head, err := d.in.frame()
	if err != nil {
		return nil, d.corruptf("header: %v", err)
	}
	var hdr snapshotHeader
	canonical := c.decodeHeader(head, &hdr)
	if !canonical {
		d.fullHeader = true
		if err := json.Unmarshal(head, &hdr); err != nil {
			return nil, d.corruptf("header: %v", err)
		}
	}
	snap := &Snapshot{
		Schema:         hdr.Schema,
		System:         hdr.System,
		SavedAt:        hdr.SavedAt,
		Options:        hdr.Options,
		SetFingerprint: hdr.SetFingerprint,
	}
	var fp string
	if canonical {
		snap.Constraints, fp = c.set, c.setFP
	} else if len(hdr.Constraints) > 0 && !bytes.Equal(hdr.Constraints, []byte("null")) {
		if err := json.Unmarshal(hdr.Constraints, &snap.Constraints); err != nil {
			return nil, d.corruptf("constraint set: %v", err)
		}
	}
	if snap.Schema != SchemaFingerprint() {
		return nil, fmt.Errorf("%w: snapshot %q, this build %q", ErrStale, snap.Schema, SchemaFingerprint())
	}
	if snap.Constraints == nil {
		return nil, fmt.Errorf("campaignstore: snapshot for %s has no constraint set", label)
	}
	if !canonical {
		fp = snap.Constraints.Fingerprint()
	}
	if fp != snap.SetFingerprint {
		return nil, fmt.Errorf("campaignstore: snapshot for %s fails its constraint fingerprint (%s != %s)",
			label, fp, snap.SetFingerprint)
	}
	d.hdr = snap
	return d, nil
}

// Header returns the decoded snapshot metadata (Outcomes/Stamps nil).
func (d *SnapshotDecoder) Header() *Snapshot { return d.hdr }

// Next returns the next outcome record. After the final record it
// verifies the trailer and returns io.EOF. The returned outJSON is the
// record's compact outcome encoding (what the fingerprint hashes); out
// is its decoded form.
func (d *SnapshotDecoder) Next() (key string, stamp time.Time, outJSON []byte, out inject.Outcome, err error) {
	if d.done {
		return "", time.Time{}, nil, inject.Outcome{}, io.EOF
	}
	n, rerr := binary.ReadUvarint(&d.in)
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated record")
	}
	if n == 0 {
		// Terminator: verify count, then CRC.
		want, rerr := binary.ReadUvarint(&d.in)
		if rerr != nil {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated trailer")
		}
		if int(want) != d.count {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("record count %d, trailer says %d", d.count, want)
		}
		sum := crc32.ChecksumIEEE(d.in.data[:d.in.off]) // everything before the trailer CRC
		tail, rerr := d.in.next(4)
		if rerr != nil {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated CRC trailer")
		}
		if got := binary.LittleEndian.Uint32(tail); got != sum {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("CRC mismatch")
		}
		d.done = true
		return "", time.Time{}, nil, inject.Outcome{}, io.EOF
	}
	kb, rerr := d.in.next(n)
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("key: %v", rerr)
	}
	key, i := d.canon.key(kb)
	if d.last != "" && key <= d.last {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("keys out of order (%q after %q)", key, d.last)
	}
	d.last = key
	nano, rerr := binary.ReadVarint(&d.in)
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated stamp")
	}
	stamp = time.Unix(0, nano).UTC()
	outJSON, rerr = d.in.frame()
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("outcome %q: %v", key, rerr)
	}
	if !d.canon.decodeOutcome(i, outJSON, &out) {
		// full escapes to json.Unmarshal, so only this path allocates it.
		var full inject.Outcome
		d.fullRecords++
		if rerr := json.Unmarshal(outJSON, &full); rerr != nil {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("outcome %q: %v", key, rerr)
		}
		out = full
	}
	d.count++
	return key, stamp, outJSON, out, nil
}

// snapshot reads d's records into its header's Outcomes and Stamps — the
// Load path. Every record is decoded and the trailer verified before the
// snapshot is returned, so a truncated or corrupt file yields an error
// and a nil snapshot, never a partial replay.
func (d *SnapshotDecoder) snapshot() (*Snapshot, error) {
	snap := d.hdr
	snap.Outcomes = make(map[string]inject.Outcome)
	snap.Stamps = make(map[string]time.Time)
	for {
		key, stamp, _, out, err := d.Next()
		if errors.Is(err, io.EOF) {
			return snap, nil
		}
		if err != nil {
			return nil, err
		}
		snap.Outcomes[key] = out
		snap.Stamps[key] = stamp
	}
}
