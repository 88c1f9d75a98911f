package campaignstore

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"spex/internal/confgen"
	"spex/internal/inject"
	"spex/internal/spex"
	"spex/internal/targets"
)

// benchSnapshot builds an n-outcome snapshot shaped like a real
// campaign's (misconf payloads, log dumps on failures, source locs).
func benchSnapshot(n int) *Snapshot {
	c := basicC("p")
	outcomes := make(map[string]inject.Outcome, n)
	for i := 0; i < n; i++ {
		m := confgen.Misconf{
			ID: fmt.Sprintf("m%06d", i), Param: fmt.Sprintf("param%d", i%40),
			Rule:        "null",
			Values:      map[string]string{fmt.Sprintf("param%d", i%40): "bad-value"},
			Violates:    c,
			Description: "injected out-of-range value",
		}
		o := inject.Outcome{Misconf: m, Reaction: inject.Reaction(i % 4), SimCost: i % 17, Pinpointed: i%2 == 0}
		if i%3 == 0 {
			o.FailedTest = "ping"
			o.LogDump = "ERR request failed: connection reset by peer\nWARN retrying\n"
		}
		outcomes[inject.CacheKey(m)] = o
	}
	snap := New("benchsys", mkSet(c), inject.DefaultOptions(), outcomes)
	snap.SavedAt = time.Unix(1700000000, 0).UTC()
	return snap
}

// encodeBinary streams the snapshot through the container codec, every
// record stamped SavedAt.
func encodeBinary(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	enc, err := newSnapshotEncoder(&buf, snap)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(snap.Outcomes))
	for k := range snap.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := enc.Add(k, snap.SavedAt, snap.Outcomes[k]); err != nil {
			return nil, err
		}
	}
	if _, err := enc.Finish(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BenchmarkSnapshotCodec measures the binary container's encode and
// decode on a 5000-outcome snapshot. SetBytes reports MB/s over the
// encoded size.
func BenchmarkSnapshotCodec(b *testing.B) {
	snap := benchSnapshot(5000)

	bin, err := encodeBinary(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("encoded size: %d bytes", len(bin))

	b.Run("encode/binary", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeBinary(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/binary", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeBinarySnapshot(bin, "benchsys", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sevenTargetStore saves the seven targets' snapshots into a new
// store, each with its inferred constraint set in the header and 50
// outcomes, and returns the store and the number of systems.
func sevenTargetStore(b *testing.B) (*Store, int) {
	b.Helper()
	rs, err := spex.InferAll(context.Background(), targets.All(), 0)
	if err != nil {
		b.Fatal(err)
	}
	store, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		b.Fatal(err)
	}
	defer lock.Unlock()
	for _, r := range rs {
		if err := lock.Set().Save(New(r.System, r.Set, inject.DefaultOptions(), fixtureOutcomes(b, 50))); err != nil {
			b.Fatal(err)
		}
	}
	return store, len(rs)
}

// loadIndexAll calls store.LoadIndexAll and checks it returned n
// indexes.
func loadIndexAll(b *testing.B, store *Store, n int) {
	idxs, err := store.LoadIndexAll()
	if err != nil {
		b.Fatal(err)
	}
	if len(idxs) != n {
		b.Fatalf("LoadIndexAll returned %d indexes, want %d", len(idxs), n)
	}
}

// BenchmarkLoadIndexAll measures LoadIndexAll on a warm store: the seven
// targets' snapshots read by the store that saved them — what spexd
// does on every tables, query and systems request.
func BenchmarkLoadIndexAll(b *testing.B) {
	store, n := sevenTargetStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadIndexAll(b, store, n)
	}
}

// BenchmarkLoadIndexAllCold measures LoadIndexAll on the same seven
// snapshots by a freshly opened Store each time: a new process's first
// read (spexeval -index, a restarted daemon), which names every file
// from its header and builds every index from its snapshot.
func BenchmarkLoadIndexAllCold(b *testing.B) {
	store, n := sevenTargetStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := Open(store.dir)
		if err != nil {
			b.Fatal(err)
		}
		loadIndexAll(b, fresh, n)
	}
}
