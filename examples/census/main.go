// Census: a scaled-down version of the paper's Internet measurement with
// ground-truth checking.
//
// It generates 1000 synthetic Web servers (realistic page sizes, request
// limits, stack quirks, and a Table IV-like algorithm mix), probes each
// with the full CAAI ladder, prints the Table IV layout, and -- because
// the simulation knows the ground truth the real study could not -- the
// identification accuracy.
//
//	go run ./examples/census
package main

import (
	"fmt"
	"log"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netem"
)

func main() {
	ctx := experiments.NewQuickContext()
	ctx.TrainingConditions = 25

	fmt.Println("training CAAI...")
	model, err := ctx.Model()
	if err != nil {
		log.Fatal(err)
	}
	id := core.NewIdentifier(model)

	cfg := census.DefaultPopulationConfig()
	cfg.Servers = 1000
	pop := census.GeneratePopulation(cfg)
	fmt.Printf("probing %d servers...\n\n", len(pop))

	report := census.Run(pop, id, netem.MeasuredDatabase(), 1)
	fmt.Println(report.TableIV())
	fmt.Printf("BIC+CUBIC share of valid traces: %.2f%% (paper: 46.92%%)\n",
		report.LabelShare("BIC")+report.LabelShare("CUBIC1")+report.LabelShare("CUBIC2"))
	fmt.Printf("ground-truth agreement on ordinary valid traces: %.2f%%\n", report.Accuracy()*100)
}
