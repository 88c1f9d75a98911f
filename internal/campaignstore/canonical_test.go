package campaignstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"spex/internal/constraint"
	"spex/internal/inject"
)

// canonFixture is a workload's Canonical and the header and outcome
// payloads a snapshot saved from it carries, payloads[i] being keys[i]'s.
type canonFixture struct {
	c        *Canonical
	keys     []string
	head     []byte
	payloads [][]byte
}

func newCanonFixture(t testing.TB) canonFixture {
	t.Helper()
	p := basicC("p")
	p.Loc = constraint.SourceLoc{File: "cfg.c", Line: 10, Func: "parse"}
	ms := misconfs(p, 4)
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = inject.CacheKey(m)
	}
	fx := canonFixture{c: NewCanonical(mkSet(p, rangeC("q", 1)), ms, keys), keys: keys}
	fx.c.build()
	snap := New("storefake", fx.c.set, inject.DefaultOptions(), nil)
	head, err := json.Marshal(snapshotHeader{Schema: snap.Schema, System: snap.System, SavedAt: snap.SavedAt,
		Options: snap.Options, SetFingerprint: snap.SetFingerprint, Constraints: fx.c.setJSON})
	if err != nil {
		t.Fatal(err)
	}
	fx.head = head
	for i, m := range ms {
		o := inject.Outcome{Misconf: m, Reaction: inject.Reaction(i % 4), SimCost: i + 1, Loc: p.Loc}
		if i%2 == 1 {
			o.FailedTest, o.LogDump = "ping", "ERR request failed\n"
		}
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		fx.payloads = append(fx.payloads, b)
	}
	return fx
}

// container frames a header and one record the way the encoder does,
// CRC included, so every byte the fuzzer varies reaches the JSON
// decoders.
func container(head []byte, key string, payload []byte) []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.AppendUvarint(b, uint64(len(head)))
	b = append(b, head...)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 1)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// sameDecode decodes data plainly and against c and fails unless both
// accept or reject it alike and agree on the snapshot fingerprint, the
// constraint set and every outcome, compared both as values
// (reflect.DeepEqual) and as json.Marshal bytes. It returns what of the
// canonical decode took the full decode.
func sameDecode(t *testing.T, data []byte, c *Canonical) (fullHeader bool, fullRecords int) {
	t.Helper()
	plain, _, perr := decodeBinarySnapshot(data, "fuzz", nil)
	fast, d, ferr := decodeBinarySnapshot(data, "fuzz", c)
	if fmt.Sprint(perr) != fmt.Sprint(ferr) {
		t.Fatalf("plain decode: %v\ncanonical decode: %v", perr, ferr)
	}
	if perr != nil {
		return true, 0
	}
	fps := [2]string{}
	for i, snap := range []*Snapshot{plain, fast} {
		fp, err := snap.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	if fps[0] != fps[1] {
		t.Fatalf("fingerprints differ: plain %s, canonical %s", fps[0], fps[1])
	}
	if a, b := mustMarshal(t, plain.Constraints), mustMarshal(t, fast.Constraints); !bytes.Equal(a, b) {
		t.Fatalf("constraint sets differ:\nplain     %s\ncanonical %s", a, b)
	}
	if !plain.SavedAt.Equal(fast.SavedAt) || len(plain.Outcomes) != len(fast.Outcomes) {
		t.Fatalf("snapshots differ: saved %v vs %v, %d vs %d outcomes",
			plain.SavedAt, fast.SavedAt, len(plain.Outcomes), len(fast.Outcomes))
	}
	for k, o := range plain.Outcomes {
		if a, b := mustMarshal(t, o), mustMarshal(t, fast.Outcomes[k]); !bytes.Equal(a, b) {
			t.Fatalf("outcome %q differs:\nplain     %s\ncanonical %s", k, a, b)
		}
		if !reflect.DeepEqual(o, fast.Outcomes[k]) {
			t.Fatalf("outcome %q differs:\nplain     %+v\ncanonical %+v", k, o, fast.Outcomes[k])
		}
	}
	return d.fullHeader, d.fullRecords
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCanonicalDecodeFastPath: the bytes a save writes take the fast
// path; anything else that is still valid takes the full decode, with
// the same result either way.
func TestCanonicalDecodeFastPath(t *testing.T) {
	fx := newCanonFixture(t)
	for _, tc := range []struct {
		name              string
		head, payload     []byte
		key               string
		fullHead, fullRec bool
	}{
		{"saved bytes", fx.head, fx.payloads[1], fx.keys[1], false, false},
		{"another key's misconfiguration", fx.head, fx.payloads[0], fx.keys[1], false, true},
		{"whitespace after the comma", fx.head, spaceAfterSpan(fx, 2), fx.keys[2], false, true},
		{"moved constraint location", movedLocHead(t, fx), fx.payloads[3], fx.keys[3], true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fullHead, fullRecs := sameDecode(t, container(tc.head, tc.key, tc.payload), fx.c)
			if fullHead != tc.fullHead || (fullRecs == 1) != tc.fullRec {
				t.Errorf("full header %v, full records %d; want %v, %v", fullHead, fullRecs, tc.fullHead, tc.fullRec)
			}
		})
	}
}

// TestCanonicalBuildsOnFirstDecode: NewCanonical encodes nothing, so a
// workload that never loads a snapshot never pays for its encodings; the
// first decode against it builds them.
func TestCanonicalBuildsOnFirstDecode(t *testing.T) {
	fx := newCanonFixture(t)
	c := NewCanonical(fx.c.set, fx.c.ms, fx.c.keys)
	if c.setJSON != nil || c.byKey != nil {
		t.Fatal("NewCanonical encoded the workload")
	}
	if fullHead, fullRecs := sameDecode(t, container(fx.head, fx.keys[0], fx.payloads[0]), c); fullHead || fullRecs != 0 {
		t.Errorf("first decode: full header %v, %d records decoded in full; want none", fullHead, fullRecs)
	}
}

// spaceAfterSpan is payload i with whitespace after the comma that
// follows its misconfiguration.
func spaceAfterSpan(fx canonFixture, i int) []byte {
	end := len(misconfPrefix) + len(fx.c.msJSON[i])
	p := fx.payloads[i]
	return append(append(append([]byte(nil), p[:end+1]...), " \n\t"...), p[end+1:]...)
}

// movedLocHead is the fixture header with its constraint set's "p"
// moved to another line: the same constraint identities, so the same
// set fingerprint, under different bytes.
func movedLocHead(t testing.TB, fx canonFixture) []byte {
	moved := bytes.Replace(fx.head, []byte(`"Line":10`), []byte(`"Line":42`), 1)
	if bytes.Equal(moved, fx.head) {
		t.Fatal("fixture header has no constraint at line 10")
	}
	return moved
}

// TestCanonicalSkipsLossyEncodings: a misconfiguration or constraint set
// whose JSON would not decode back to it is never matched, so its
// snapshot decodes exactly as without a Canonical.
func TestCanonicalSkipsLossyEncodings(t *testing.T) {
	p := basicC("p")
	ms := misconfs(p, 2)
	ms[1].Values = map[string]string{"p": "bad\xff"}
	keys := []string{inject.CacheKey(ms[0]), inject.CacheKey(ms[1])}
	c := NewCanonical(mkSet(p), ms, keys)
	c.build()
	if _, ok := c.byKey[keys[1]]; ok {
		t.Error("a misconfiguration holding invalid UTF-8 was indexed")
	}
	if _, ok := c.byKey[keys[0]]; !ok {
		t.Error("a plain misconfiguration was not indexed")
	}
	dup := &constraint.Set{System: "storefake", Constraints: []*constraint.Constraint{p, basicC("p")}}
	dc := NewCanonical(dup, nil, nil)
	if dc.build(); dc.setJSON != nil {
		t.Error("a set whose decode drops a repeated constraint was indexed")
	}
	for _, set := range []*constraint.Set{c.set, dup} {
		head := mustMarshal(t, snapshotHeader{Schema: SchemaFingerprint(), System: "storefake",
			SetFingerprint: set.Fingerprint(), Constraints: mustMarshal(t, set)})
		for i, m := range ms {
			sameDecode(t, container(head, keys[i], mustMarshal(t, inject.Outcome{Misconf: m})), NewCanonical(set, ms, keys))
		}
	}
}

// FuzzCanonicalDecode: for any header and record bytes, decoding against
// a Canonical accepts exactly what the plain decoder accepts and yields
// the same snapshot fingerprint, constraint set and outcome encodings.
func FuzzCanonicalDecode(f *testing.F) {
	fx := newCanonFixture(f)
	f.Add(fx.head, uint8(0), fx.payloads[0])
	f.Add(fx.head, uint8(1), fx.payloads[0])
	// A second, case-insensitive "misconf" key after the matched span:
	// the plain decoder merges it into the misconfiguration.
	second := bytes.TrimSuffix(fx.payloads[1], []byte("}"))
	f.Add(fx.head, uint8(1), append(append([]byte(nil), second...), `,"misconf":{"ID":"x"}}`...))
	f.Add(fx.head, uint8(1), append(append([]byte(nil), second...), `,"MISCONF":null}`...))
	// Whitespace or a brace right after the span's comma.
	f.Add(fx.head, uint8(2), spaceAfterSpan(fx, 2))
	end := len(misconfPrefix) + len(fx.c.msJSON[2])
	f.Add(fx.head, uint8(2), append(append([]byte(nil), fx.payloads[2][:end+1]...), '}'))
	f.Add(fx.head, uint8(2), append(append([]byte(nil), fx.payloads[2][:end+1]...), " }"...))
	// A header whose constraint bytes differ only in a Loc, one with no
	// member before the set, and one repeating the set's key earlier.
	f.Add(movedLocHead(f, fx), uint8(3), fx.payloads[3])
	set := fx.head[bytes.Index(fx.head, constraintsMember):]
	f.Add(append([]byte("{"), set...), uint8(0), fx.payloads[0])
	f.Add(append([]byte(`{"Constraints":null,`), fx.head[1:]...), uint8(0), fx.payloads[0])
	f.Add(append(append([]byte(nil), fx.head...), ' '), uint8(0), fx.payloads[0])
	f.Fuzz(func(t *testing.T, head []byte, key uint8, payload []byte) {
		sameDecode(t, container(head, fx.keys[int(key)%len(fx.keys)], payload), fx.c)
	})
}

// TestWarmPrepareAllocsPerRecord bounds what a warm Prepare allocates
// per record. The store holds what the workload's own campaign saved, so
// every record matches its Canonical: the key is the workload's string,
// the frames are slices of the file's bytes and the tail takes the
// strict parse, which reuses the misconfiguration's location strings.
// What is left per record is the outcome's failed test and log, and its
// share of the file, the maps and their growth.
func TestWarmPrepareAllocsPerRecord(t *testing.T) {
	const n, perRecord = 300, 3
	p := basicC("p")
	p.Loc = constraint.SourceLoc{File: "cfg.c", Line: 10, Func: "parse"}
	set, ms, opts := mkSet(p), misconfs(p, n), inject.DefaultOptions()
	keys := make([]string, n)
	outcomes := make(map[string]inject.Outcome, n)
	for i, m := range ms {
		keys[i] = inject.CacheKey(m)
		o := inject.Outcome{Misconf: m, Reaction: inject.Reaction(i % 7), SimCost: i, Loc: p.Loc}
		if o.Reaction.Vulnerability() {
			o.FailedTest, o.LogDump = "ping", "ERR request failed\nWARN retrying\n"
		}
		outcomes[keys[i]] = o
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Unlock()
	if err := lock.Set().Save(New("storefake", set, opts, outcomes)); err != nil {
		t.Fatal(err)
	}
	c := NewCanonical(set, ms, keys)
	prepare := func() {
		st, got, _ := store.Prepare("storefake", set, ms, keys, opts, nil, c)
		if !st.Replayed || st.FullHeader || st.FullDecodes != 0 || len(got) != n {
			t.Fatalf("warm Prepare: %+v, %d outcomes; want a replay of %d records, none decoded in full", st, len(got), n)
		}
	}
	prepare() // builds c's encodings
	if allocs := testing.AllocsPerRun(10, prepare); allocs > perRecord*n {
		t.Errorf("a warm Prepare of %d records makes %.0f allocations, %.1f per record; want at most %d",
			n, allocs, allocs/n, perRecord)
	}
}
