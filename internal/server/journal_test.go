package server

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadJournal holds journal adoption to its contract on arbitrary
// documents under arbitrary file names: no panic, every adopted job's
// ID is its file's stem, and nothing is written outside jobs/ (a
// running document's failed-adoption rewrite goes to the ID's path).
func FuzzLoadJournal(f *testing.F) {
	f.Add("job-000001", []byte(`{"id": "job-000001", "state": "running"}`))
	f.Add("job-000001", []byte(`{"id": "../../escape", "state": "running"}`))
	f.Add("job-000004", []byte(`{"id": "job-000002", "state": "queued"}`))
	f.Add("job-000002", []byte(`{"id": "job-000002", "state": "done", "systems": [{"system": "ldapd"}]}`))
	f.Add("job-000003.trace", []byte(`{"job": "job-000003", "spans": []}`))
	f.Add("job-000005", []byte(`{"id": "job-000005", "state": "running", "done_at": "not a time"}`))
	f.Add("job-000006", []byte(`{"id": "job-000006"`))
	f.Fuzz(func(t *testing.T, stem string, data []byte) {
		if stem == "" || stem == "." || stem == ".." || strings.ContainsAny(stem, "/\x00") {
			t.Skip("not a file name")
		}
		root := t.TempDir()
		// Nested, so an ID climbing out of jobs/ still lands inside root.
		state := filepath.Join(root, "a", "b")
		jobs := filepath.Join(state, jobsDirName)
		if err := os.MkdirAll(jobs, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jobs, stem+".json"), data, 0o644); err != nil {
			t.Skip("not a file name")
		}
		docs, _, err := loadJournal(state)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			if doc.ID != stem {
				t.Errorf("adopted job %q from file %s.json", doc.ID, stem)
			}
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && filepath.Dir(path) != jobs {
				t.Errorf("journal adoption wrote %s outside jobs/", path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
