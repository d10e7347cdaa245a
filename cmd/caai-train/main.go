// Command caai-train generates the CAAI training set, cross-validates the
// random forest (the paper's Table III), optionally sweeps the forest
// parameters (Fig. 12), and can persist the trained model so caai-census
// and caai-probe identify without retraining.
//
// Usage:
//
//	caai-train -conditions 100 -folds 10          # Table III
//	caai-train -conditions 50 -sweep              # Fig. 12 parameter sweep
//	caai-train -conditions 100 -save model.json   # train once, reuse everywhere
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "caai-train:", err)
		os.Exit(1)
	}
}

func run() error {
	conditions := flag.Int("conditions", 100, "network conditions per (algorithm, wmax) pair")
	folds := flag.Int("folds", 10, "cross-validation folds")
	seed := flag.Int64("seed", 2011, "random seed")
	sweep := flag.Bool("sweep", false, "also sweep K and F (Fig. 12)")
	save := flag.String("save", "", "write the trained model to this path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	ctx := experiments.NewContext()
	ctx.TrainingConditions = *conditions
	ctx.Folds = *folds
	ctx.Seed = *seed

	ds, err := ctx.TrainingSet()
	if err != nil {
		return err
	}
	fmt.Printf("training set: %d feature vectors, %d classes\n\n", ds.Len(), len(ds.Classes()))

	t3, err := experiments.TableIII(ctx)
	if err != nil {
		return err
	}
	fmt.Println(t3)

	if *sweep {
		_, rendered, err := experiments.Fig12(ctx, nil, nil)
		if err != nil {
			return err
		}
		fmt.Println(rendered)
	}

	_, cmp, err := experiments.ClassifierComparison(ctx)
	if err != nil {
		return err
	}
	fmt.Println(cmp)

	if *save != "" {
		model, err := ctx.Model()
		if err != nil {
			return err
		}
		// The context trains at the default probe budget; the file
		// records it so every loader serves the model at that budget.
		if err := core.NewIdentifier(model).SaveFile(*save); err != nil {
			return err
		}
		fmt.Printf("saved trained %s model to %s\n", model.Name(), *save)
	}
	return nil
}
