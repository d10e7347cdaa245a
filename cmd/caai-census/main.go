// Command caai-census reproduces the paper's Internet measurement as a
// fault-tolerant campaign: it generates the synthetic population of Web
// servers, probes it with coordinator workers that share one queue
// (retry/backoff, optional checkpointing), and prints Table IV. With
// -model it loads a model saved by caai-train -save and skips retraining
// entirely.
//
// Usage:
//
//	caai-census -servers 63124 -conditions 100
//	caai-census -servers 63124 -model model.json -workers 8
//	caai-census -model model.json -checkpoint run1/            # resumable
//	caai-census -model model.json -checkpoint run1/ -resume    # continue
//	caai-census -model model.json -fault-plan chaos.json       # inject faults
//
// An interrupted run (SIGINT/SIGTERM) flushes its checkpoint, prints the
// partial table over the targets completed so far, and exits non-zero;
// re-running with -resume picks up where it stopped and converges to the
// same table as an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	caai "repro"
	"repro/internal/census"
	"repro/internal/census/shard"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/prof"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caai-census:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it probes until the census
// completes or ctx is cancelled (then it flushes the checkpoint, prints
// the partial table, and returns a non-nil "interrupted" error).
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("caai-census", flag.ContinueOnError)
	// Parse errors surface once, via the returned error; only an explicit
	// -h prints usage, on the success stream.
	fs.SetOutput(io.Discard)
	servers := fs.Int("servers", 63124, "population size")
	conditions := fs.Int("conditions", 100, "training conditions per (algorithm, wmax) pair (ignored with -model)")
	seed := fs.Int64("seed", 2011, "random seed")
	model := fs.String("model", "", "load a saved model instead of retraining (see caai-train -save)")
	workers := fs.Int("workers", 0, "coordinator workers (0 = GOMAXPROCS)")
	maxAttempts := fs.Int("max-attempts", 0, "probe attempts per target before abandoning (0 = default 4)")
	maxDeferrals := fs.Int("max-deferrals", 0, "rate-limit deferrals per target before abandoning (0 = default 8)")
	checkpoint := fs.String("checkpoint", "", "directory for incremental checkpointing (enables kill+resume)")
	resume := fs.Bool("resume", false, "resume a prior run from -checkpoint instead of starting over")
	faultPlan := fs.String("fault-plan", "", "JSON fault-injection plan (see internal/census/shard.FaultPlan)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil // a help request is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint: there is nothing to resume from")
	}

	var plan *shard.FaultPlan
	if *faultPlan != "" {
		p, err := shard.LoadFaultPlan(*faultPlan)
		if err != nil {
			return err
		}
		plan = p
	}

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	var id *core.Identifier
	if *model != "" {
		id, err = core.LoadFile(*model)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %s model from %s, probing %d servers...\n\n", id.Name(), *model, *servers)
	} else {
		fmt.Fprintf(stdout, "training CAAI (%d conditions per pair), then probing %d servers...\n\n", *conditions, *servers)
		trained, err := caai.Train(caai.TrainingOptions{ConditionsPerPair: *conditions, Seed: *seed})
		if err != nil {
			return err
		}
		id = core.NewIdentifier(trained.Classifier())
	}

	// census.Campaign derives the population and probing seed, as for
	// experiments.TableIV and the service's POST /v1/census, so every
	// runner produces the identical table.
	pop, probeSeed := census.Campaign(*servers, *seed)
	coord, err := shard.New(pop, id, netem.MeasuredDatabase(), shard.Config{
		Workers:      *workers,
		Seed:         probeSeed,
		MaxAttempts:  *maxAttempts,
		MaxDeferrals: *maxDeferrals,
		Checkpoint:   *checkpoint,
		Resume:       *resume,
		Fault:        plan,
	})
	if err != nil {
		return err
	}
	runErr := coord.Run(ctx)
	p := coord.Progress()
	if p.Resumed > 0 {
		fmt.Fprintf(stdout, "resumed %d targets from checkpoint %s\n", p.Resumed, *checkpoint)
	}
	if p.Retries+p.Deferrals+p.TargetsAbandoned > 0 {
		fmt.Fprintf(stdout, "fault handling: %d retries, %d deferrals, %d targets abandoned, %.2fs backoff\n",
			p.Retries, p.Deferrals, p.TargetsAbandoned, p.BackoffSeconds)
	}
	if runErr != nil {
		if ctx.Err() == nil {
			return runErr
		}
		// Interrupted: the deferred checkpoint close already flushed the
		// manifest. Print what the campaign learned so far, then fail the
		// exit status so callers know the table is partial.
		if p.Completed > 0 {
			fmt.Fprintf(stdout, "\npartial results over %d/%d targets:\n\n%s\n", p.Completed, p.Targets, coord.Report().TableIV())
		}
		if *checkpoint != "" {
			fmt.Fprintf(stdout, "checkpoint flushed to %s; re-run with -resume to continue\n", *checkpoint)
		}
		return fmt.Errorf("interrupted with %d/%d targets complete", p.Completed, p.Targets)
	}
	fmt.Fprintln(stdout, coord.Report().TableIV())
	return nil
}
