package coord

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spex/internal/campaignstore"
)

// FuzzReadLease: a lease file is disk input that workers and the
// coordinator re-read all campaign long. ReadLease must return an error
// or a lease that writes and reads back unchanged.
func FuzzReadLease(f *testing.F) {
	f.Add([]byte(`{"worker": 1, "generation": 1, "keys": [{"system": "ldapd", "key": "k1"}]}`))
	f.Add([]byte(`{"worker": 2, "generation": 7, "keys": []}`))
	f.Add([]byte(`{"worker": 0, "generation": 1}`))
	f.Add([]byte(`{"worker": 1, "generation": -1, "keys": null}`))
	f.Add([]byte(`{"worker": 1, "generation": 1, "keys": [{"system": 3}]}`))
	f.Add([]byte(`{"worker": 1`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "worker1.lease.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := ReadLease(path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "worker2.lease.json")
		if err := campaignstore.WriteJSON(again, l); err != nil {
			t.Fatal(err)
		}
		back, err := ReadLease(again)
		if err != nil {
			t.Fatalf("reading back an accepted lease: %v", err)
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("lease changed across a round trip: %+v != %+v", back, l)
		}
	})
}
