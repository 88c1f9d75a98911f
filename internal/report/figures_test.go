package report

import (
	"context"
	"strings"
	"testing"

	"spex/internal/inject"
)

// TestFigureVerdicts: each figure case study is tested through the
// campaign harness, and its verdict is the one its caption names.
// Figure 5(a) is the exception: the harness calls it tolerated, not a
// vulnerability, and the figure prints the text 5(e) and 7(e) print for
// silent ignorance ("server runs; setting silently retained/ignored").
func TestFigureVerdicts(t *testing.T) {
	want := map[string]inject.Reaction{
		"Figure 1":    inject.ReactionFuncFailure,
		"Figure 2":    inject.ReactionCrash,
		"Figure 5(a)": inject.ReactionTolerated,
		"Figure 5(b)": inject.ReactionCrash,
		"Figure 5(c)": inject.ReactionEarlyTerm,
		"Figure 5(d)": inject.ReactionSilentViolation,
		"Figure 5(e)": inject.ReactionSilentIgnorance,
		"Figure 5(f)": inject.ReactionFuncFailure,
		"Figure 7(a)": inject.ReactionCrash,
		"Figure 7(b)": inject.ReactionEarlyTerm,
		"Figure 7(c)": inject.ReactionFuncFailure,
		"Figure 7(d)": inject.ReactionSilentViolation,
		"Figure 7(e)": inject.ReactionSilentIgnorance,
	}
	cases := append([]scenario{figure1Case, figure2Case}, figure5Cases...)
	cases = append(cases, figure7Cases...)
	if len(cases) != len(want) {
		t.Fatalf("%d case studies, %d pinned verdicts", len(cases), len(want))
	}
	for _, sc := range cases {
		fig, _, _ := strings.Cut(sc.Caption, ":")
		w, ok := want[fig]
		if !ok {
			t.Errorf("%s: no pinned verdict", fig)
			continue
		}
		tr, err := sc.trial(context.Background())
		if err != nil {
			t.Errorf("%s: %v", fig, err)
			continue
		}
		if got := tr.Outcome.Reaction; got != w {
			t.Errorf("%s: verdict %s, want %s", fig, got, w)
		}
	}
}
