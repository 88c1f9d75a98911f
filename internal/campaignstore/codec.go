// Binary snapshot container: the one storage format behind Save. It is
// a stream of length-prefixed records, so both ends of the pipeline
// handle one outcome at a time instead of the whole snapshot:
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
// frame is what buys streaming (read or write one outcome at a time,
// skip without parsing), and the payload bytes are exactly what
// Snapshot.Fingerprint hashes, so a streaming writer folds the
// fingerprint for free as records pass through. The ascending key order
// is load-bearing twice: it makes the fingerprint computable in one
// pass, and it lets shard.Merge fold k shard files with a k-way merge
// that holds one record per shard in memory.
//
// The encoder keeps one invariant: a record's payload is
// json.Marshal(outcome), and the header's constraints member, written
// last, is json.Marshal(set). Store.Prepare's decoder leans on it. The
// workload's Canonical (canonical.go) holds those bytes for its set and
// misconfigurations: a header that ends with the canonical set bytes
// decodes only the members before them and takes the workload's set and
// fingerprint, and a payload that opens with {"Misconf": and then
// exactly its key's canonical misconfiguration bytes decodes only the
// members after them and takes the workload's misconfiguration.
// Anything else, and every decode without a Canonical (Load,
// SnapshotIter), takes the full json.Unmarshal. Both paths accept the
// same bytes and yield the same fingerprint and outcome encodings
// (FuzzCanonicalDecode).
//
// Every length prefix is untrusted input: frames are read without
// preallocating the claimed length (readFrameBody), so a corrupt prefix
// costs what the file actually holds, not up to maxFrameLen.
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
	"os"
	"slices"
	"strconv"
	"time"

	"spex/internal/inject"
)

// snapMagic opens every binary snapshot file.
var snapMagic = []byte("SPEXSNP1")

// maxFrameLen bounds any single length prefix.
const maxFrameLen = 1 << 30

// frameChunk is the most a frame read allocates before any of its bytes
// have arrived; larger frames grow as they are read.
const frameChunk = 1 << 20

// frameReader is the source a length-prefixed frame is read from.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readFrame reads one uvarint-length-prefixed frame.
func readFrame(r frameReader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, errors.New("truncated length prefix")
	}
	return readFrameBody(r, n)
}

// readFrameBody reads a frame of n bytes. The buffer grows with the
// bytes that actually arrive, so a corrupt length prefix over a short
// file allocates at most frameChunk, never the claimed length.
func readFrameBody(r io.Reader, n uint64) ([]byte, error) {
	if n > maxFrameLen {
		return nil, fmt.Errorf("frame length %d exceeds limit", n)
	}
	b := make([]byte, 0, min(n, frameChunk))
	for uint64(len(b)) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, int(min(n, 2*uint64(len(b))))-len(b))
		}
		m, err := io.ReadFull(r, b[len(b):min(uint64(cap(b)), n)])
		b = b[:len(b)+m]
		if err != nil {
			return nil, errors.New("truncated frame")
		}
	}
	return b, nil
}

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
// outcome records.
type snapshotHeader struct {
	Schema         string          `json:"schema"`
	System         string          `json:"system"`
	SavedAt        time.Time       `json:"saved_at"`
	Options        string          `json:"options"`
	SetFingerprint string          `json:"set_fingerprint"`
	Constraints    json.RawMessage `json:"constraints"`
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
	rawSet, err := json.Marshal(hdr.Constraints)
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	head, err := json.Marshal(snapshotHeader{
		Schema:         hdr.Schema,
		System:         hdr.System,
		SavedAt:        hdr.SavedAt,
		Options:        hdr.Options,
		SetFingerprint: hdr.SetFingerprint,
		Constraints:    rawSet,
	})
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

// crcStream folds the bytes the decoder *consumes* into a running CRC.
// The fold must sit above any bufio layer, not below it: bufio
// prefetches past the decoder's logical position, and a fold on the raw
// reader would swallow the trailer (and anything after it) ahead of
// time.
type crcStream struct {
	r   frameReader
	crc uint32
}

func (c *crcStream) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

func (c *crcStream) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// SnapshotDecoder streams a binary snapshot: NewSnapshotDecoder
// validates the header (magic, schema staleness, constraint
// fingerprint), then Next yields one record at a time in ascending key
// order; after the last record the trailer's count and CRC are
// verified, so a truncated or bit-flipped file surfaces as an error
// before the caller trusts the stream was complete.
type SnapshotDecoder struct {
	s     *crcStream
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

// NewSnapshotDecoder reads and validates the container header. label
// names the source in errors. The reader must be positioned at the
// magic.
func NewSnapshotDecoder(r io.Reader, label string) (*SnapshotDecoder, error) {
	return newSnapshotDecoder(r, label, nil)
}

// newSnapshotDecoder is NewSnapshotDecoder matching against c (nil: the
// plain decode). A reader that cannot read byte by byte (a file) is
// buffered; one that can (the bytes.Reader behind Load) is read as is.
func newSnapshotDecoder(r io.Reader, label string, c *Canonical) (*SnapshotDecoder, error) {
	fr, ok := r.(frameReader)
	if !ok {
		fr = bufio.NewReaderSize(r, 1<<16)
	}
	d := &SnapshotDecoder{s: &crcStream{r: fr}, label: label, canon: c}
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(d.s, magic); err != nil || !bytes.Equal(magic, snapMagic) {
		return nil, d.corruptf("bad magic")
	}
	head, err := readFrame(d.s)
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
	n, rerr := binary.ReadUvarint(d.s)
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated record")
	}
	if n == 0 {
		// Terminator: verify count, then CRC.
		want, rerr := binary.ReadUvarint(d.s)
		if rerr != nil {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated trailer")
		}
		if int(want) != d.count {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("record count %d, trailer says %d", d.count, want)
		}
		sum := d.s.crc // CRC of everything consumed before the trailer CRC
		var tail [4]byte
		if _, rerr := io.ReadFull(d.s.r, tail[:]); rerr != nil {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated CRC trailer")
		}
		if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("CRC mismatch")
		}
		d.done = true
		return "", time.Time{}, nil, inject.Outcome{}, io.EOF
	}
	kb, rerr := readFrameBody(d.s, n)
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("key: %v", rerr)
	}
	key = string(kb)
	if d.last != "" && key <= d.last {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("keys out of order (%q after %q)", key, d.last)
	}
	d.last = key
	nano, rerr := binary.ReadVarint(d.s)
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("truncated stamp")
	}
	stamp = time.Unix(0, nano).UTC()
	outJSON, rerr = readFrame(d.s)
	if rerr != nil {
		return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("outcome %q: %v", key, rerr)
	}
	if !d.canon.decodeOutcome(key, outJSON, &out) {
		d.fullRecords++
		if rerr := json.Unmarshal(outJSON, &out); rerr != nil {
			return "", time.Time{}, nil, inject.Outcome{}, d.corruptf("outcome %q: %v", key, rerr)
		}
	}
	d.count++
	return key, stamp, outJSON, out, nil
}

// decodeBinarySnapshot materializes a whole binary snapshot — the Load
// path — matching it against c (nil: the plain decode); the returned
// decoder reports how much took the full decode. Every record is decoded
// and the trailer verified before the snapshot is returned, so a
// truncated or corrupt file yields an error and a nil snapshot, never a
// partial replay.
func decodeBinarySnapshot(data []byte, label string, c *Canonical) (*Snapshot, *SnapshotDecoder, error) {
	d, err := newSnapshotDecoder(bytes.NewReader(data), label, c)
	if err != nil {
		return nil, nil, err
	}
	snap := d.Header()
	snap.Outcomes = make(map[string]inject.Outcome)
	snap.Stamps = make(map[string]time.Time)
	for {
		key, stamp, _, out, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		snap.Outcomes[key] = out
		snap.Stamps[key] = stamp
	}
	return snap, d, nil
}

// SnapshotIter streams one snapshot file's records in ascending key
// order, one record in memory at a time — the shard merge's per-source
// cursor.
type SnapshotIter struct {
	d *SnapshotDecoder
	f *os.File
}

// OpenSnapshotIter opens the snapshot file at path for streaming reads.
// Header validation (magic, schema staleness, constraint fingerprint)
// happens here, before any record is consumed; label names the source
// in errors.
func OpenSnapshotIter(path, label string) (*SnapshotIter, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaignstore: %w", err)
	}
	d, err := NewSnapshotDecoder(f, label)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &SnapshotIter{d: d, f: f}, nil
}

// Header returns the source snapshot's metadata (Outcomes/Stamps nil —
// the records only exist in the stream).
func (it *SnapshotIter) Header() *Snapshot { return it.d.Header() }

// Next returns the next record, or io.EOF once the trailer verified the
// stream complete.
func (it *SnapshotIter) Next() (key string, stamp time.Time, out inject.Outcome, err error) {
	key, stamp, _, out, err = it.d.Next()
	return key, stamp, out, err
}

// Close releases the underlying file.
func (it *SnapshotIter) Close() error { return it.f.Close() }
