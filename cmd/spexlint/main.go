// Spexlint is the repo's custom static-analysis suite: five analyzers
// that enforce the cross-cutting invariants of the campaign pipeline —
// the campaignstore writer-lock ownership model, context threading,
// fingerprint determinism, the non-blocking progress fan-out, and the
// obs metric-registration discipline.
// See internal/analysis for the checked-invariant catalogue.
//
// Run it from inside the module on package patterns:
//
//	spexlint ./...
//
// It loads the packages through analysis.Load, from one `go list`
// listing that gives each package with tests as cmd/go compiles it
// for `go test`, and prints each finding as `file:line:col: message
// (spexlint:name)` on stderr. Exit 0 is clean, 1 a driver failure or a
// package that does not build or type-check (printed beside the other
// packages' findings), 2 findings; a //spexlint:ignore <analyzer>
// <reason> directive on or above the flagged line waives one finding
// with an audit trail.
package main

import (
	"os"

	"spex/internal/analysis"
	"spex/internal/analysis/ctxflow"
	"spex/internal/analysis/fingerprintpurity"
	"spex/internal/analysis/hubsend"
	"spex/internal/analysis/lockcontract"
	"spex/internal/analysis/obsmetric"
)

// suite is the full analyzer set; the repo-wide cleanliness test runs
// the same list the binary does.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockcontract.Analyzer,
		ctxflow.Analyzer,
		fingerprintpurity.Analyzer,
		hubsend.Analyzer,
		obsmetric.Analyzer,
	}
}

func main() {
	os.Exit(analysis.Main(suite(), os.Args[1:]))
}
