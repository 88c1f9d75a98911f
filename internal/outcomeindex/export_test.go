package outcomeindex

// Fixture is the in-package outcome fixture, for the external test
// package that fuzzes the index read from a snapshot.
var Fixture = fixture
