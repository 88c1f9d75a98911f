package campaignstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spex/internal/inject"
	"spex/internal/outcomeindex"
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

// TestLoadIndexSidecar: a save writes the index sidecar; LoadIndex
// serves it while fresh and rebuilds (and rewrites it) when it is
// missing or stale. The saving store answers from memory, so every
// read here goes through a freshly opened store.
func TestLoadIndexSidecar(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Store {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	set := mkSet(basicC("p"))
	outcomes := fixtureOutcomes(t, 18)
	snap := New("storefake", set, inject.DefaultOptions(), outcomes)
	if err := store.save(snap); err != nil {
		t.Fatal(err)
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.IndexPath("storefake")); err != nil {
		t.Fatalf("save did not write the index sidecar: %v", err)
	}

	idx, err := fresh().LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if idx.System != "storefake" || idx.Fingerprint != fp || len(idx.Docs) != len(outcomes) {
		t.Fatalf("sidecar index wrong: system=%q fp=%s docs=%d", idx.System, idx.Fingerprint, len(idx.Docs))
	}

	// Deleting the sidecar forces a rebuild from the snapshot with the
	// same content, and the rebuild rewrites the sidecar.
	if err := os.Remove(store.IndexPath("storefake")); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := fresh().LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Fingerprint != fp || len(rebuilt.Docs) != len(idx.Docs) ||
		!reflect.DeepEqual(rebuilt.Agg, idx.Agg) {
		t.Fatal("rebuilt index differs from the sidecar index")
	}
	if _, err := os.Stat(store.IndexPath("storefake")); err != nil {
		t.Fatalf("rebuild did not rewrite the sidecar: %v", err)
	}

	// A sidecar whose recorded snapshot identity no longer matches is
	// stale: garbage in the file must never be served.
	if err := os.WriteFile(store.IndexPath("storefake"), []byte(fmt.Sprintf(`{"version":%d,"snap":"other","sys":{"system":"storefake"}}`, outcomeindex.Version)), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := fresh().LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Docs) != len(outcomes) {
		t.Fatalf("stale sidecar served: %d docs, want %d", len(again.Docs), len(outcomes))
	}

	// A sidecar whose identity still matches is trusted for its docs
	// only: posting lists and tallies written into it — a vulnerable
	// position past the last doc, an inflated count — are re-derived
	// from the docs on load, never served.
	data, err := os.ReadFile(store.IndexPath("storefake"))
	if err != nil {
		t.Fatal(err)
	}
	// UseNumber keeps the nanosecond snapshot mtime exact, so the
	// tampered sidecar still matches its snapshot.
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	sys := doc["sys"].(map[string]any)
	sys["vulnerable"] = []int{len(outcomes) + 5}
	sys["agg"] = map[string]any{"outcomes": len(outcomes), "vulnerabilities": 12345}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.IndexPath("storefake"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	tampered, err := fresh().LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tampered.Agg, idx.Agg) || !reflect.DeepEqual(tampered.Vulnerable, idx.Vulnerable) {
		t.Fatalf("tampered sidecar served: agg %+v vulnerable %v, want %+v %v",
			tampered.Agg, tampered.Vulnerable, idx.Agg, idx.Vulnerable)
	}
	if groups := outcomeindex.Run([]*outcomeindex.System{tampered}, outcomeindex.Query{}); len(groups) == 0 {
		t.Error("query over the reloaded index found no vulnerabilities")
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
