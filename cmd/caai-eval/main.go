// Command caai-eval runs the scenario-matrix accuracy evaluation and
// appends one machine-readable trajectory point (ACCURACY_<n>.json) to the
// accuracy history, enforcing the checked-in accuracy budgets — the
// quality counterpart of cmd/caai-bench. CI runs it at reduced scale on
// every push and archives the JSON; developers run it before and after a
// pipeline change and paste the Compare table into the PR.
//
// Usage:
//
//	caai-eval -train 25                 # train one model per budget, sweep the matrix, write ACCURACY_<n>.json
//	caai-eval -model model.json         # sweep a saved model at its own budget (exploratory: no file, no gate)
//	caai-eval -scenarios clean,loss_5   # sweep a subset (exploratory: no file, no gate)
//	caai-eval -compare ACCURACY_0.json ACCURACY_1.json   # render a before/after table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/trajectory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caai-eval:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("caai-eval", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	out := fs.String("out", ".", "directory holding the ACCURACY_<n>.json history")
	label := fs.String("label", "", "free-form provenance label for the point")
	modelPath := fs.String("model", "", "saved model to evaluate at the budget it was trained at (see caai-train -save); empty trains one model per budget in-process")
	train := fs.Int("train", 25, "training conditions per (algorithm, wmax) pair when no -model is given")
	trees := fs.Int("trees", 80, "forest size for in-process training")
	trials := fs.Int("trials", 12, "identification trials per matrix cell")
	seed := fs.Int64("seed", 2011, "seed for training and the matrix trials")
	parallelism := fs.Int("parallelism", 0, "worker pool width (0 = all CPUs)")
	algorithms := fs.String("algorithms", "", "comma-separated ground-truth algorithms (default: all 14 CAAI targets)")
	scenarios := fs.String("scenarios", "", "comma-separated scenario subset (exploratory: no trajectory write, no gate)")
	budgets := fs.String("budgets", "", "comma-separated probe-budget subset (exploratory, like -scenarios)")
	budgetPath := fs.String("budget", "accuracy_budget.json", "accuracy budget file to enforce; empty or missing disables the gate")
	dryRun := fs.Bool("n", false, "run and print without writing the trajectory file")
	compare := fs.Bool("compare", false, "compare two trajectory files (args: before.json after.json) instead of running")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil
		}
		return err
	}

	if *compare {
		return trajectory.Compare(stdout, eval.Trajectory, fs.Args(), eval.Compare)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := eval.Config{
		Trials:      *trials,
		Seed:        *seed,
		Parallelism: *parallelism,
	}
	filtered := false
	if *algorithms != "" {
		filtered = true
		for _, name := range strings.Split(*algorithms, ",") {
			name = strings.ToUpper(strings.TrimSpace(name))
			if _, ok := cc.Lookup(name); !ok {
				return fmt.Errorf("-algorithms: unknown algorithm %q", name)
			}
			cfg.Algorithms = append(cfg.Algorithms, name)
		}
	}
	if *scenarios != "" {
		filtered = true
		selected, err := selectByName(*scenarios, eval.DefaultScenarios(),
			func(s eval.Scenario) string { return s.Name })
		if err != nil {
			return fmt.Errorf("-scenarios: %v", err)
		}
		cfg.Scenarios = selected
	}
	if *budgets != "" {
		filtered = true
		selected, err := selectByName(*budgets, eval.DefaultBudgets(),
			func(b eval.ProbeBudget) string { return b.Name })
		if err != nil {
			return fmt.Errorf("-budgets: %v", err)
		}
		cfg.Budgets = selected
	}

	var modelFor func(eval.ProbeBudget) *core.Identifier
	modelDesc := ""
	if *modelPath != "" {
		// A saved model is graded at its own budget only: probing it at
		// another budget measures the mismatch, not the model.
		if *budgets != "" {
			return fmt.Errorf("-budgets does not apply to -model: a saved model is swept at the budget it was trained at")
		}
		id, err := core.LoadFile(*modelPath)
		if err != nil {
			return err
		}
		b := eval.BudgetOf(id.Probe())
		cfg.Budgets = []eval.ProbeBudget{b}
		filtered = true
		modelFor = func(eval.ProbeBudget) *core.Identifier { return id }
		modelDesc = fmt.Sprintf("%s (%s)", id.Name(), *modelPath)
		fmt.Fprintf(stdout, "evaluating %s model from %s at its %s budget\n", id.Name(), *modelPath, b.Name)
	} else {
		if len(cfg.Budgets) == 0 {
			cfg.Budgets = eval.DefaultBudgets()
		}
		fmt.Fprintf(stdout, "training one evaluation model per budget (%d conditions per pair, %d trees)...\n", *train, *trees)
		models := map[string]*core.Identifier{}
		for _, b := range cfg.Budgets {
			ds, err := core.GenerateTrainingSet(netem.MeasuredDatabase(), core.TrainingConfig{
				ConditionsPerPair: *train,
				Seed:              *seed,
				Parallelism:       *parallelism,
				Probe:             b.Probe,
			})
			if err != nil {
				return fmt.Errorf("training the %s model: %w", b.Name, err)
			}
			models[b.Name] = core.NewIdentifierAt(forest.Train(ds, forest.Config{Trees: *trees, Subspace: 4, Seed: *seed + 1}), b.Probe)
		}
		modelFor = func(b eval.ProbeBudget) *core.Identifier { return models[b.Name] }
		modelDesc = fmt.Sprintf("randomforest per budget (in-process, conditions=%d trees=%d seed=%d)", *train, *trees, *seed)
	}

	matrix := eval.Run(modelFor, cfg)
	fmt.Fprint(stdout, matrix.Table())
	point := eval.NewPoint(*label, modelDesc, *seed, matrix)

	return trajectory.Record[eval.Point, eval.Budget](stdout, eval.Trajectory, point, trajectory.Run{
		Dir: *out, Budget: *budgetPath, DryRun: *dryRun, Filtered: filtered,
	})
}

// selectByName filters items by a comma-separated name list, preserving
// the default order.
func selectByName[T any](list string, items []T, name func(T) string) ([]T, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []T
	for _, it := range items {
		if want[name(it)] {
			out = append(out, it)
			delete(want, name(it))
		}
	}
	if len(want) > 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		return nil, fmt.Errorf("unknown name(s) %v", missing)
	}
	return out, nil
}
