package campaignstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/spex"
	"spex/internal/targets"
)

// fixtureOutcomes builds a deterministic outcome map large enough to
// exercise multi-record streaming.
func fixtureOutcomes(t testing.TB, n int) map[string]inject.Outcome {
	t.Helper()
	c := basicC("p")
	out := make(map[string]inject.Outcome, n)
	for i, m := range misconfs(c, n) {
		o := inject.Outcome{Misconf: m, Reaction: inject.Reaction(i % 4), SimCost: i, Pinpointed: i%2 == 0}
		if i%3 == 1 {
			o.FailedTest = "ping"
			o.LogDump = "ERR request failed\n"
		}
		out[inject.CacheKey(m)] = o
	}
	return out
}

// decodeBinarySnapshot decodes a whole binary snapshot held in data as
// Load decodes a file's bytes, matching it against c (nil: the plain
// decode); the returned decoder reports how much took the full decode.
func decodeBinarySnapshot(data []byte, label string, c *Canonical) (*Snapshot, *SnapshotDecoder, error) {
	d, err := newSnapshotDecoder(data, label, c)
	if err != nil {
		return nil, nil, err
	}
	snap, err := d.snapshot()
	if err != nil {
		return nil, nil, err
	}
	return snap, d, nil
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"), rangeC("q", 1))
	outcomes := fixtureOutcomes(t, 24)
	snap := New("storefake", set, inject.DefaultOptions(), outcomes)
	wantFP, err := snap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.save(snap); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(store.Path("storefake"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, snapMagic) {
		t.Fatalf("saved snapshot does not start with the binary magic: % x", data[:8])
	}

	got, err := store.Load("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outcomes, outcomes) {
		t.Fatal("binary round trip changed the outcome map")
	}
	if got.Schema != SchemaFingerprint() || got.Options != snap.Options ||
		got.SetFingerprint != set.Fingerprint() ||
		got.Constraints == nil || got.Constraints.Fingerprint() != set.Fingerprint() {
		t.Fatalf("header fields lost in round trip: %+v", got)
	}
	gotFP, err := got.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Fatalf("fingerprint changed across the binary round trip: %s != %s", gotFP, wantFP)
	}
	// Stamps survive (Save stamps unstamped keys with SavedAt).
	for k := range outcomes {
		if got.Stamps[k].IsZero() {
			t.Fatalf("key %s lost its freshness stamp", k)
		}
	}
}

func TestCorruptBinarySnapshotRejected(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"))
	if err := store.save(New("storefake", set, inject.DefaultOptions(), fixtureOutcomes(t, 12))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path("storefake"))
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at any depth must be loud, never a partial load.
	for _, cut := range []int{len(data) - 3, len(data) / 2, len(snapMagic) + 2} {
		if err := os.WriteFile(store.Path("storefake"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load("storefake"); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("truncation at %d loaded anyway: %v", cut, err)
		}
	}

	// A flipped bit in the record region fails the CRC (or an inner
	// frame check) — either way the load reports corruption.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 0xff
	if err := os.WriteFile(store.Path("storefake"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("storefake"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("bit flip loaded anyway: %v", err)
	}
}

// corruptPrefixFile is a 15-byte snapshot whose header frame claims
// 1 GiB: the magic, uvarint 1<<30, then two bytes of JSON.
func corruptPrefixFile() []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.AppendUvarint(b, 1<<30)
	return append(b, "{}"...)
}

// TestCorruptLengthPrefixDoesNotAllocate: a length prefix is untrusted
// input. Loading and indexing a tiny file whose prefix claims 1 GiB must
// fail without allocating anything near the claimed length; List names
// the file without reading it.
func TestCorruptLengthPrefixDoesNotAllocate(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := corruptPrefixFile()
	if len(data) != 15 {
		t.Fatalf("fixture is %d bytes, want 15", len(data))
	}
	if err := os.WriteFile(store.Path("storefake"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, loadErr := store.Load("storefake")
	_, indexErr := store.LoadIndexAll()
	runtime.ReadMemStats(&after)
	if loadErr == nil || !strings.Contains(loadErr.Error(), "corrupt") {
		t.Errorf("Load = %v, want a corrupt-snapshot error", loadErr)
	}
	if indexErr == nil || !strings.Contains(indexErr.Error(), "corrupt") {
		t.Errorf("LoadIndexAll = %v, want a corrupt-snapshot error", indexErr)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 64<<20 {
		t.Errorf("Load+LoadIndexAll allocated %d MiB for a 15-byte file", delta>>20)
	}
	if systems, err := store.List(); err != nil || len(systems) != 1 || systems[0] != "storefake" {
		t.Errorf("List = %v, %v, want [storefake]", systems, err)
	}
}

// FuzzDecodeSnapshot: the snapshot decoder reads untrusted disk input.
// It must return an error or a snapshot that survives an encode/decode
// round trip with its fingerprint unchanged — and never panic.
func FuzzDecodeSnapshot(f *testing.F) {
	valid, err := encodeBinary(New("storefake", mkSet(basicC("p"), rangeC("q", 1)), inject.DefaultOptions(), fixtureOutcomes(f, 4)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, len(snapMagic), len(snapMagic) + 3, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(corruptPrefixFile())
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, _, err := decodeBinarySnapshot(data, "fuzz", nil)
		if err != nil {
			return
		}
		want, err := snap.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		again, err := encodeBinary(snap)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		back, _, err := decodeBinarySnapshot(again, "fuzz", nil)
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot: %v", err)
		}
		got, err := back.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fingerprint changed across the round trip: %s != %s", got, want)
		}
	})
}

// TestHeaderMarshalsSetOnce: the header encodeHeader writes, the set's
// json.Marshal bytes appended as the last member, equals json.Marshal of
// the whole header with the set as a RawMessage, the encoding every
// snapshot on disk was written with, for each of the seven targets'
// inferred sets, a set whose strings json.Marshal escapes, and no set.
func TestHeaderMarshalsSetOnce(t *testing.T) {
	rs, err := spex.InferAll(context.Background(), targets.All(), 0)
	if err != nil {
		t.Fatal(err)
	}
	escaped := basicC("a<b>&c \"d\"")
	escaped.Loc = constraint.SourceLoc{File: "x\\y.c", Func: "<init>"}
	sets := []*constraint.Set{mkSet(escaped), nil}
	for _, r := range rs {
		sets = append(sets, r.Set)
	}
	for _, set := range sets {
		hdr := &Snapshot{Schema: SchemaFingerprint(), System: "storefake", SavedAt: time.Unix(1700000000, 5).UTC(),
			Options: OptionsID(inject.DefaultOptions()), Constraints: set}
		if set != nil {
			hdr.System, hdr.SetFingerprint = set.System, set.Fingerprint()
		}
		got, err := encodeHeader(hdr)
		if err != nil {
			t.Fatal(err)
		}
		want := mustMarshal(t, snapshotHeader{Schema: hdr.Schema, System: hdr.System, SavedAt: hdr.SavedAt,
			Options: hdr.Options, SetFingerprint: hdr.SetFingerprint, Constraints: mustMarshal(t, set)})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: header\n%s\nwant\n%s", hdr.System, got, want)
		}
	}
}
