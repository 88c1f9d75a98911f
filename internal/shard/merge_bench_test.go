package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
)

// BenchmarkMergeThroughput folds four shard stores (10k outcomes each,
// disjoint keys plus a 5% duplicated overlap) into a fresh destination
// per iteration — the spexmerge hot path. Reported metrics: outcomes/s
// of merged output and the process's peak RSS. The merge reads each
// shard file whole and decodes one record per shard at a time, so its
// memory grows with the shard files' bytes, not with four shard
// outcome maps.
func BenchmarkMergeThroughput(b *testing.B) {
	const shards = 4
	const perShard = 10000
	c := &constraint.Constraint{Kind: constraint.KindBasicType, Param: "p", Basic: constraint.BasicString}
	set := constraint.NewSet("benchsys")
	set.Add(c)
	opts := inject.DefaultOptions()
	stamp := time.Unix(1700000000, 0).UTC()

	root := b.TempDir()
	dirs := make([]string, shards)
	for s := 0; s < shards; s++ {
		dirs[s] = filepath.Join(root, fmt.Sprintf("shard%d", s))
		if err := os.MkdirAll(dirs[s], 0o755); err != nil {
			b.Fatal(err)
		}
		store, err := campaignstore.Open(dirs[s])
		if err != nil {
			b.Fatal(err)
		}
		outcomes := make(map[string]inject.Outcome, perShard+perShard/20)
		add := func(id string) {
			m := confgen.Misconf{
				ID: id, Param: "p", Rule: "null",
				Values: map[string]string{"p": "bad"}, Violates: c,
			}
			outcomes[inject.CacheKey(m)] = inject.Outcome{
				Misconf: m, Reaction: inject.Reaction(len(outcomes) % 4), SimCost: 3,
				LogDump: "ERR request failed\n",
			}
		}
		for i := 0; i < perShard; i++ {
			add(fmt.Sprintf("s%d-m%06d", s, i))
		}
		// Overlap with the next shard: freshest-wins has work to do.
		for i := 0; i < perShard/20; i++ {
			add(fmt.Sprintf("dup-m%06d", (s*perShard/20)+i%(perShard/20)))
		}
		snap := campaignstore.New("benchsys", set, opts, outcomes)
		snap.SavedAt = stamp.Add(time.Duration(s) * time.Minute)
		if err := saveLocked(b, store, snap); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	var merged int
	for i := 0; i < b.N; i++ {
		dst := filepath.Join(root, fmt.Sprintf("merged%d", i))
		if err := os.MkdirAll(dst, 0o755); err != nil {
			b.Fatal(err)
		}
		stats, err := mergeInto(b, dst, dirs)
		if err != nil {
			b.Fatal(err)
		}
		merged = 0
		for _, st := range stats {
			merged += st.Outcomes
		}
		b.StopTimer()
		os.RemoveAll(dst)
		b.StartTimer()
	}
	b.ReportMetric(float64(merged)*float64(b.N)/b.Elapsed().Seconds(), "outcomes/s")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.ReportMetric(float64(ru.Maxrss)/1024, "peak-rss-MB")
	}
}
