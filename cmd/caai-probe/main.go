// Command caai-probe runs the CAAI pipeline against one simulated Web
// server and prints the gathered traces, the extracted feature vector, and
// the classification. With -model it loads a model saved by caai-train
// -save instead of retraining; -classifier selects an alternative backend
// (knn, naivebayes, decisiontree, neuralnet, linearsvm).
//
// Usage:
//
//	caai-probe -algorithm CUBIC2 -loss 0.01 -conditions 25
//	caai-probe -algorithm BIC -model model.json
//	caai-probe -algorithm STCP -classifier knn
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	caai "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caai-probe:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("caai-probe", flag.ContinueOnError)
	// Parse errors surface once, via the returned error; only an explicit
	// -h prints usage, on the success stream.
	fs.SetOutput(io.Discard)
	algorithm := fs.String("algorithm", "CUBIC2", "server congestion avoidance algorithm ("+strings.Join(caai.Algorithms(), ", ")+")")
	loss := fs.Float64("loss", 0, "path packet-loss rate in [0,1]")
	rttStddev := fs.Duration("jitter", 0, "path RTT standard deviation")
	conditions := fs.Int("conditions", 25, "training conditions per (algorithm, wmax) pair")
	seed := fs.Int64("seed", 1, "random seed")
	model := fs.String("model", "", "load a saved model instead of retraining (see caai-train -save)")
	backend := fs.String("classifier", "randomforest", "classifier backend ("+strings.Join(caai.ClassifierBackends(), ", ")+")")
	timings := fs.Bool("timings", false, "print the per-stage wall-clock breakdown of the identification")
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
	if *loss < 0 || *loss > 1 {
		return fmt.Errorf("-loss %v out of range [0, 1]", *loss)
	}

	var id *caai.Identifier
	var err error
	if *model != "" {
		classifierSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "classifier" {
				classifierSet = true
			}
		})
		if classifierSet {
			return fmt.Errorf("-model and -classifier are mutually exclusive: a loaded model already fixes the backend")
		}
		id, err = caai.LoadModel(*model)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %s model from %s\n", id.Classifier().Name(), *model)
	} else {
		fmt.Fprintf(stdout, "training CAAI %s (%d conditions per pair)...\n", *backend, *conditions)
		id, err = caai.TrainWithClassifier(caai.TrainingOptions{ConditionsPerPair: *conditions, Seed: *seed}, *backend)
		if err != nil {
			return err
		}
	}

	server := caai.NewTestbedServer(*algorithm)
	cond := caai.Condition{MeanRTT: 50 * time.Millisecond, RTTStdDev: *rttStddev, LossRate: *loss}
	rng := rand.New(rand.NewSource(*seed))

	ta, tb, wmax, valid := caai.GatherTraces(server, cond, id.Probe(), rng)
	if !valid {
		return fmt.Errorf("no valid trace gathered from %s", server.Name)
	}
	fmt.Fprintf(stdout, "\ntrace A: %s\n", ta)
	fmt.Fprintf(stdout, "trace B: %s\n", tb)
	fmt.Fprintf(stdout, "wmax: %d\n", wmax)
	fmt.Fprintf(stdout, "features: %s\n", caai.ExtractFeatures(ta, tb))

	var result caai.Identification
	if *timings {
		result = id.IdentifyTimed(server, cond, id.Probe(), rand.New(rand.NewSource(*seed+1)))
	} else {
		result = id.Identify(server, cond, rand.New(rand.NewSource(*seed+1)))
	}
	fmt.Fprintf(stdout, "\nidentification: %s\n", result)
	if *timings {
		printTimings(stdout, result.Timings)
	}
	return nil
}

// printTimings renders the recorded per-stage spans, skipping stages that
// did not run (the CLI has no queue or cache).
func printTimings(w io.Writer, tm caai.StageTimings) {
	fmt.Fprintf(w, "\nstage timings (total %s):\n", tm.Total())
	for s := 0; s < caai.NumStages; s++ {
		if tm[s] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s %s\n", caai.Stage(s), tm[s])
	}
}
