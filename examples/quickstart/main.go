// Quickstart: train CAAI and identify the congestion avoidance algorithm
// of a simulated Web server, end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	caai "repro"
)

func main() {
	// Train on the emulated testbed: 14 algorithms x 4 wmax thresholds
	// x 20 network conditions (the paper uses 100 per pair).
	fmt.Println("training CAAI...")
	id, err := caai.Train(caai.TrainingOptions{ConditionsPerPair: 20, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// A remote Web server whose TCP algorithm we do not know. Here we
	// simulate one running CUBIC (Linux >= 2.6.26) behind a realistic
	// Internet path.
	server := caai.NewTestbedServer("CUBIC2")
	rng := rand.New(rand.NewSource(42))
	cond := caai.SampleCondition(rng)
	fmt.Printf("probing %s over path %s\n", server.Name, cond)

	// The three CAAI steps, one call: gather window traces in emulated
	// network environments A and B, extract the beta / growth features,
	// classify with the random forest.
	result := id.Identify(server, cond, rng)
	fmt.Println("identification:", result)
	fmt.Println("feature vector:", result.Vector)

	// The raw traces are available too.
	ta, tb, wmax, valid := caai.GatherTraces(server, cond, caai.ProbeConfig{}, rng)
	if valid {
		fmt.Printf("\nraw trace (env A, wmax=%d):\n  %s\n", wmax, ta)
		fmt.Printf("raw trace (env B):\n  %s\n", tb)
	}

	// Production flow: persist the trained model and identify a whole
	// fleet in one IdentifyBatch call on the worker pool -- no retraining.
	path := filepath.Join(os.TempDir(), "caai-quickstart-model.json")
	if err := id.SaveModel(path); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	loaded, err := caai.LoadModel(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreloaded %s model from %s\n", loaded.Classifier().Name(), path)

	jobs := make([]caai.BatchJob, 0, 6)
	for _, alg := range []string{"RENO", "BIC", "CUBIC2", "STCP", "VEGAS", "HTCP"} {
		jobs = append(jobs, caai.BatchJob{Server: caai.NewTestbedServer(alg), Cond: caai.LosslessCondition()})
	}
	for i, r := range loaded.IdentifyBatch(jobs, caai.BatchOptions{Seed: 9}) {
		fmt.Printf("  %-10s -> %s\n", jobs[i].Server.Name, r)
	}
}
