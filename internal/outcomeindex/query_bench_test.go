package outcomeindex

import (
	"encoding/json"
	"fmt"
	"testing"

	"spex/internal/inject"
)

// BenchmarkIndexQuery compares the daemon's two possible query paths on
// a 7-system, 70k-outcome store: answering from the in-memory outcome
// indexes (the shipped read path — posting lists plus precomputed
// aggregates) versus re-parsing each system's JSON outcome document and
// scanning it, which is what serving from snapshots directly costs.
// The acceptance bar is indexed >= 10x faster than the re-parse.
func BenchmarkIndexQuery(b *testing.B) {
	const perSystem = 10000
	var systems []*System
	var jsonDocs [][]byte
	for s := 0; s < 7; s++ {
		name := fmt.Sprintf("sys%d", s)
		outcomes := fixture(name, perSystem)
		systems = append(systems, buildIndex(Meta{System: name}, outcomes))
		data, err := json.Marshal(outcomes)
		if err != nil {
			b.Fatal(err)
		}
		jsonDocs = append(jsonDocs, data)
	}
	q := Query{Param: "param3", MinSystems: 2}

	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if groups := Run(systems, q); len(groups) == 0 {
				b.Fatal("query found nothing")
			}
		}
	})
	b.Run("json-reparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The snapshot-direct path: parse every system's outcome
			// document, then scan it with the same filters.
			var scanned []*System
			for s, data := range jsonDocs {
				var outcomes map[string]inject.Outcome
				if err := json.Unmarshal(data, &outcomes); err != nil {
					b.Fatal(err)
				}
				scanned = append(scanned, buildIndex(Meta{System: fmt.Sprintf("sys%d", s)}, outcomes))
			}
			if groups := Run(scanned, q); len(groups) == 0 {
				b.Fatal("query found nothing")
			}
		}
	})
}
