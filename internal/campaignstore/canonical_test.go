package campaignstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/spex"
	"spex/internal/targets"
)

// canonFixture is a workload's Canonical and the header, outcomes and
// outcome payloads a snapshot saved from it carries, outcomes[i] and
// payloads[i] being keys[i]'s.
type canonFixture struct {
	c        *Canonical
	keys     []string
	head     []byte
	outcomes []inject.Outcome
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
		fx.outcomes = append(fx.outcomes, o)
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
// constraint set and the json.Marshal of every outcome. It returns what
// of the canonical decode took the full decode.
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
		{"whitespace after the comma", fx.head, spaceAfterSpan(fx, 2), fx.keys[2], false, false},
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
	end := len(misconfPrefix) + len(fx.c.byKey[fx.keys[i]].json)
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
	end := len(misconfPrefix) + len(fx.c.byKey[fx.keys[2]].json)
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

// samePlainEncode fails unless encoding snap against c writes exactly
// the plain encode's bytes, whose payloads are json.Marshal of each
// outcome, and its fingerprint, which is Snapshot.Fingerprint. It
// returns what c spliced.
func samePlainEncode(t testing.TB, snap *Snapshot, c *Canonical) (header bool, records int) {
	t.Helper()
	got, gotFP, err := encodeBinary(snap, c)
	if err != nil {
		t.Fatal(err)
	}
	want, wantFP, err := encodeBinary(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the encode against the Canonical differs from the plain encode:\n%q\n%q", got, want)
	}
	if fp, err := snap.Fingerprint(); err != nil || gotFP != wantFP || gotFP != fp {
		t.Fatalf("fingerprints: spliced %s, plain %s, Snapshot.Fingerprint %s (%v)", gotFP, wantFP, fp, err)
	}
	return spliced(snap, c)
}

// spliced reports what a save of snap against c writes from c's
// encodings instead of marshalling: the header, and how many records.
// It asks the encoder's own splice decisions and builds nothing.
func spliced(snap *Snapshot, c *Canonical) (header bool, records int) {
	c = c.encodings()
	h := snapshotHeader{Schema: snap.Schema, System: snap.System, SavedAt: snap.SavedAt,
		Options: snap.Options, SetFingerprint: snap.SetFingerprint}
	header = c.encodeHeader(h, snap.Constraints) != nil
	for k, o := range snap.Outcomes {
		if _, _, ok := c.encodeOutcome(k, &o); ok {
			records++
		}
	}
	return header, records
}

// fixtureSnapshot is a snapshot of fx's workload: its own set and its
// outcomes, each carrying the workload's misconfiguration.
func fixtureSnapshot(fx canonFixture) *Snapshot {
	outcomes := make(map[string]inject.Outcome, len(fx.keys))
	for i, k := range fx.keys {
		outcomes[k] = fx.outcomes[i]
	}
	return New("storefake", fx.c.set, inject.DefaultOptions(), outcomes)
}

// TestSevenTargetResavesSplice takes each of the seven targets' inferred
// workload through the store side of a cold and then a warm campaign.
// A prepare that finds no snapshot and a save against the workload's
// Canonical build no encodings. The next prepare builds them as it
// decodes, and the re-save of what it replays splices the header and
// every record and writes exactly the plain encode's bytes.
func TestSevenTargetResavesSplice(t *testing.T) {
	systems := targets.All()
	rs, err := spex.InferAll(context.Background(), systems, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := inject.DefaultOptions()
	for i, sys := range systems {
		name, set := sys.Name(), rs[i].Set
		tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
		if err != nil {
			t.Fatal(err)
		}
		ms := confgen.NewRegistry().Generate(set, tmpl)
		keys := make([]string, len(ms))
		outcomes := make(map[string]inject.Outcome, len(ms))
		for j, m := range ms {
			keys[j] = inject.CacheKey(m)
			o := inject.Outcome{Misconf: m, Reaction: inject.Reaction(j % 4), SimCost: j,
				Loc: constraint.SourceLoc{File: name + "/<main>.c", Line: j}}
			if j%3 == 0 {
				o.FailedTest, o.LogDump = "ping", "ERR request failed & retried\n"
			}
			outcomes[keys[j]] = o
		}
		c := NewCanonical(set, ms, keys)
		if st, _, _ := store.Prepare(name, set, ms, keys, opts, nil, c); st.Replayed {
			t.Fatalf("%s: the first prepare replayed", name)
		}
		if err := store.save(New(name, set, opts, outcomes), c); err != nil {
			t.Fatal(err)
		}
		if c.built.Load() {
			t.Errorf("%s: a cold prepare and save built the encodings", name)
		}
		st, replayed, _ := store.Prepare(name, set, ms, keys, opts, nil, c)
		if !st.Replayed || st.FullHeader || st.FullDecodes != 0 || len(replayed) != len(ms) || !c.built.Load() {
			t.Fatalf("%s: warm prepare replayed %v (%d of %d), full header %v, %d records decoded in full, built %v",
				name, st.Replayed, len(replayed), len(ms), st.FullHeader, st.FullDecodes, c.built.Load())
		}
		warm := New(name, set, opts, replayed)
		if header, records := samePlainEncode(t, warm, c); !header || records != len(ms) {
			t.Errorf("%s: the warm re-save splices header %v and %d of %d records", name, header, records, len(ms))
		}
		if err := store.save(warm, c); err != nil {
			t.Fatal(err)
		}
		want, _, err := encodeBinary(warm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(store.Path(name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the warm re-save's file is not the plain encode (%v)", name, err)
		}
	}
}

// TestCanonicalEncodeFallbacks: whatever is not the workload's own set,
// or not its misconfiguration for the key, is marshalled, and so is
// everything a Canonical no load has built covers.
func TestCanonicalEncodeFallbacks(t *testing.T) {
	fx := newCanonFixture(t)
	moved := *fx.c.set.Constraints[0]
	moved.Loc.Line = 42
	if moved.ID() != fx.c.set.Constraints[0].ID() || moved.Loc == fx.c.set.Constraints[0].Loc {
		t.Fatal("the moved constraint must keep its identity and change its location")
	}
	for _, tc := range []struct {
		name    string
		edit    func(*Snapshot) *Canonical
		header  bool
		records int
	}{
		{"a Canonical no load has built", func(*Snapshot) *Canonical {
			return NewCanonical(fx.c.set, fx.c.ms, fx.c.keys)
		}, false, 0},
		{"another description", func(snap *Snapshot) *Canonical {
			o := snap.Outcomes[fx.keys[0]]
			o.Misconf.Description = "injected"
			snap.Outcomes[fx.keys[0]] = o
			return fx.c
		}, true, len(fx.keys) - 1},
		{"a violated constraint that moved", func(snap *Snapshot) *Canonical {
			o := snap.Outcomes[fx.keys[1]]
			o.Misconf.Violates = &moved
			snap.Outcomes[fx.keys[1]] = o
			return fx.c
		}, true, len(fx.keys) - 1},
		{"an equal set under another pointer", func(snap *Snapshot) *Canonical {
			snap.Constraints = mkSet(fx.c.set.Constraints...)
			return fx.c
		}, false, len(fx.keys)},
		{"a set with the same fingerprint whose constraint moved", func(snap *Snapshot) *Canonical {
			snap.Constraints = mkSet(&moved, fx.c.set.Constraints[1])
			if snap.Constraints.Fingerprint() != snap.SetFingerprint {
				t.Fatal("the moved set changed fingerprint")
			}
			return fx.c
		}, false, len(fx.keys)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := fixtureSnapshot(fx)
			c := tc.edit(snap)
			header, records := samePlainEncode(t, snap, c)
			if header != tc.header || records != tc.records {
				t.Errorf("spliced header %v and %d records; want %v and %d", header, records, tc.header, tc.records)
			}
			if c != fx.c && c.built.Load() {
				t.Error("a save built the Canonical's encodings")
			}
		})
	}
}

// TestCanonicalEncodeEscapes: the members after a spliced
// misconfiguration carry encoding/json's escapes (HTML characters,
// U+2028 and U+2029, control bytes, invalid UTF-8) exactly as
// json.Marshal of the whole outcome does.
func TestCanonicalEncodeEscapes(t *testing.T) {
	fx := newCanonFixture(t)
	snap := fixtureSnapshot(fx)
	odd := "<b>&amp;</b>\u2028\u2029\x00\x1f\x7f\xff\xfe\"\\ \t\r\n"
	for i, k := range fx.keys {
		o := snap.Outcomes[k]
		o.LogDump, o.FailedTest, o.Err = odd[i:], odd[:len(odd)-i], odd
		o.Loc.File = "dir/" + odd
		snap.Outcomes[k] = o
	}
	if header, records := samePlainEncode(t, snap, fx.c); !header || records != len(fx.keys) {
		t.Errorf("spliced header %v and %d of %d records; want all", header, records, len(fx.keys))
	}
}

// FuzzCanonicalEncode: for any outcome fields over a fixed workload, a
// record spliced from the canonical misconfiguration is exactly
// json.Marshal of the outcome, and a fuzzed change to the
// misconfiguration takes the plain encode, with the same bytes.
func FuzzCanonicalEncode(f *testing.F) {
	fx := newCanonFixture(f)
	f.Add(uint8(0), 0, false, "", "", "", "", 0, 0, uint8(0), "")
	f.Add(uint8(1), 3, true, "ping", "ERR <x> & y \u2028\x00\xff", "boot: \x01", "a/<b>.c", 7, 12, uint8(0), "")
	f.Add(uint8(2), -1, false, "t", "log", "", "f.c", -3, 1<<40, uint8(1), "injected\xff")
	f.Add(uint8(3), 9, true, "", "", "", "", 1, 2, uint8(3), "moved.c")
	f.Add(uint8(0), 1, false, "", "", "", "", 1, 2, uint8(4), "bad")
	f.Fuzz(func(t *testing.T, key uint8, reaction int, pinpointed bool, failedTest, logDump, errText, file string,
		line, simCost int, mutate uint8, value string) {
		i := int(key) % len(fx.keys)
		m := fx.c.ms[i]
		switch mutate % 6 {
		case 1:
			m.Description = value
		case 2:
			m.ID = value
		case 3:
			moved := *m.Violates
			moved.Loc.File = value
			m.Violates = &moved
		case 4:
			m.Values = map[string]string{m.Param: value}
		case 5:
			m.Env = append(m.Env, confgen.EnvAction{Path: value})
		}
		out := inject.Outcome{Misconf: m, Reaction: inject.Reaction(reaction), Pinpointed: pinpointed,
			FailedTest: failedTest, LogDump: logDump, Err: errText,
			Loc: constraint.SourceLoc{File: file, Line: line, Func: value}, SimCost: simCost}
		want, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		misconf, tail, ok := fx.c.encodeOutcome(fx.keys[i], &out)
		if ok != reflect.DeepEqual(m, fx.c.ms[i]) {
			t.Fatalf("spliced %v for a misconfiguration that deep-equals the workload's: %v", ok, !ok)
		}
		if got := append(append(append([]byte(nil), misconfPrefix...), misconf...), tail...); ok && !bytes.Equal(got, want) {
			t.Fatalf("spliced record differs from json.Marshal:\n%s\n%s", got, want)
		}
		snap := fixtureSnapshot(fx)
		snap.Outcomes[fx.keys[i]] = out
		samePlainEncode(t, snap, fx.c)
	})
}
