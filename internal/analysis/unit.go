package analysis

import (
	"errors"
	"fmt"
	"os"
)

// Main is the spexlint entry point: it runs Check on the packages
// matching the patterns from the working directory and prints each
// finding to stderr as `file:line:col: message (spexlint:name)`.
// Returns the process exit code: 0 clean, 1 for a driver failure or a
// unit that does not load or type-check, 2 for findings.
func Main(analyzers []*Analyzer, patterns []string) int {
	if len(patterns) == 0 {
		fmt.Fprintln(os.Stderr, "usage: spexlint <packages>")
		return 1
	}
	diags, err := Check(".", analyzers, patterns...)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "spexlint: %v\n", err)
		return 1
	case len(diags) > 0:
		return 2
	}
	return 0
}

// Check loads the packages matching the patterns in dir, their tests
// included (Load), and runs the analyzers over every unit. A unit that
// go list, the compiler or go/types rejects is not analyzed: its
// errors come back joined in the error, beside the findings of every
// unit that did check. A failure of go list itself or of an analyzer
// returns no findings.
func Check(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	units, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	var unitErrs []error
	for _, u := range units {
		if len(u.Errors) > 0 {
			for _, e := range u.Errors {
				unitErrs = append(unitErrs, fmt.Errorf("%s: %w", u.PkgPath, e))
			}
			continue
		}
		ds, err := RunAnalyzers(u.Fset, u.Files, u.Types, u.Info, analyzers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.PkgPath, err)
		}
		diags = append(diags, ds...)
	}
	return diags, errors.Join(unitErrs...)
}
