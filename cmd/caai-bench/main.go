// Command caai-bench runs the hot-path benchmark suite and appends one
// machine-readable trajectory point (BENCH_<n>.json) to the perf history,
// enforcing the checked-in allocation budgets. CI runs it at reduced scale
// on every push and archives the JSON; developers run it before and after
// a performance change and paste the Compare table into the PR.
//
// Usage:
//
//	caai-bench                         # run suite, write BENCH_<n>.json, enforce bench_budget.json
//	caai-bench -filter 'service/'      # run a subset
//	caai-bench -label after-arena      # tag the point
//	caai-bench -compare BENCH_0.json BENCH_1.json   # render a before/after table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/trajectory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caai-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("caai-bench", flag.ContinueOnError)
	out := fs.String("out", ".", "directory holding the BENCH_<n>.json history")
	label := fs.String("label", "", "free-form provenance label for the point")
	filterExpr := fs.String("filter", "", "regexp selecting suite benchmarks")
	conditions := fs.Int("conditions", 12, "training conditions per (algorithm, wmax) pair")
	folds := fs.Int("folds", 5, "cross-validation folds for the accuracy metric")
	seed := fs.Int64("seed", 2011, "training seed")
	accuracy := fs.Bool("accuracy", true, "record the reduced-scale cross-validation accuracy")
	budgetPath := fs.String("budget", "bench_budget.json", "budget file to enforce; empty or missing disables the gate")
	dryRun := fs.Bool("n", false, "run and print without writing the trajectory file")
	compare := fs.Bool("compare", false, "compare two trajectory files (args: before.json after.json) instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare {
		return trajectory.Compare(stdout, bench.Trajectory, fs.Args(), bench.Compare)
	}

	var filter *regexp.Regexp
	if *filterExpr != "" {
		var err error
		if filter, err = regexp.Compile(*filterExpr); err != nil {
			return fmt.Errorf("bad -filter: %w", err)
		}
	}
	rec, err := trajectory.Open[bench.Point, bench.Budget](bench.Trajectory, trajectory.Run{
		Dir: *out, Budget: *budgetPath, DryRun: *dryRun, Filtered: filter != nil,
	})
	if err != nil {
		return err
	}

	ctx := experiments.NewQuickContext()
	ctx.TrainingConditions = *conditions
	ctx.Folds = *folds
	ctx.Seed = *seed

	fmt.Fprintf(stdout, "training the suite model (%d conditions per pair)...\n", *conditions)
	cases, err := bench.Suite(ctx)
	if err != nil {
		return err
	}
	point := bench.NewPoint(*label, fmt.Sprintf("quick-%d", *conditions))
	point.Benchmarks, err = bench.Run(cases, filter, stdout)
	if err != nil {
		return err
	}

	if *accuracy {
		acc, err := bench.Accuracy(ctx)
		if err != nil {
			return err
		}
		point.Metrics["crossval_accuracy"] = acc
		fmt.Fprintf(stdout, "%-28s %14.2f%%\n", "crossval accuracy", acc*100)
	}

	return rec.Record(stdout, point)
}
