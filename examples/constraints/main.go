// Constraints walks the paper's Figure 3: one inferred constraint of each
// kind, each from the target system that exhibits the original pattern,
// followed by the Figure 5 injection that violates it and the observed
// reaction.
package main

import (
	"context"
	"fmt"
	"log"

	"spex/internal/report"
)

func main() {
	results, err := report.AnalyzeAllContext(context.Background(), report.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Figure3(results))

	fig5, err := report.Figure5(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig5)
}
