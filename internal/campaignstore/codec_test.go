package campaignstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spex/internal/inject"
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
// input. Loading and listing a tiny file whose prefix claims 1 GiB must
// fail without allocating anything near the claimed length.
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
	systems, listErr := store.List()
	runtime.ReadMemStats(&after)
	if loadErr == nil || !strings.Contains(loadErr.Error(), "corrupt") {
		t.Errorf("Load = %v, want a corrupt-snapshot error", loadErr)
	}
	if listErr != nil || len(systems) != 0 {
		t.Errorf("List = %v, %v, want no systems", systems, listErr)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 64<<20 {
		t.Errorf("Load+List allocated %d MiB for a 15-byte file", delta>>20)
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
