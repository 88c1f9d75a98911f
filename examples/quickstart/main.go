// Quickstart: infer configuration constraints for one system, generate
// misconfigurations that violate them, run the injection campaign, and
// print the exposed vulnerabilities — the full SPEX + SPEX-INJ pipeline in
// one file.
package main

import (
	"context"
	"fmt"
	"log"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/inject"
	"spex/internal/spex"
	"spex/internal/targets/mydb"
)

func main() {
	sys := mydb.New()

	// 1. SPEX: infer constraints from the target's source corpus,
	//    starting from the annotated option tables.
	res, err := spex.InferSystem(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inferred %d constraints for %d parameters (%d lines of annotation)\n",
		res.Set.Len(), res.Params, res.LoA)
	for _, c := range res.Set.ByParam("ft_max_word_len") {
		fmt.Printf("  e.g. [%s] %s\n", c.Kind, c)
	}

	// 2. SPEX-INJ: generate misconfigurations violating each constraint.
	tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
	if err != nil {
		log.Fatal(err)
	}
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	fmt.Printf("\ngenerated %d misconfigurations\n", len(ms))

	// 3. Inject, boot, test, classify.
	rep, err := inject.RunContext(context.Background(), sys, ms, inject.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign finished: %d vulnerabilities at %d code locations\n\n",
		len(rep.Vulnerabilities()), rep.UniqueLocations())
	for r, n := range rep.CountByReaction() {
		fmt.Printf("  %-20s %d\n", r, n)
	}

	// 4. One developer-facing error report.
	if v := rep.Vulnerabilities(); len(v) > 0 {
		fmt.Println()
		fmt.Println(inject.ErrorReport(v[0]))
	}
}
