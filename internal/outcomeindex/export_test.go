package outcomeindex

// Fixture and BuildIndex are the in-package outcome fixture and index
// reference, for the external test package that fuzzes the index read
// from a snapshot.
var (
	Fixture    = fixture
	BuildIndex = buildIndex
)
