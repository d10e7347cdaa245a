// Command caai-pcap identifies TCP congestion avoidance algorithms from
// packet captures: it decodes a pcap/pcapng file, reassembles the TCP
// flows, reconstructs each flow's per-RTT congestion window trace, pairs
// the connections a client made to one server, and classifies every pair
// with a trained model -- the passive counterpart of caai-probe. With
// -gen it synthesizes a capture from the simulated testbed instead, so
// the whole passive pipeline can be exercised without real traffic.
//
// Usage:
//
//	caai-pcap -model model.json capture.pcap
//	caai-pcap -conditions 12 capture.pcap          (train a fresh model)
//	caai-pcap -model model.json -json capture.pcap
//	cat capture.pcap | caai-pcap -model model.json -
//	tcpdump -i eth0 -w - | caai-pcap -model model.json -follow -
//	caai-pcap -gen CUBIC2,RENO,VEGAS -o capture.pcap
//
// -follow switches to the streaming pipeline: flows are classified and
// printed the moment they close (idle past the expiry threshold), so an
// endless live capture produces a continuous result stream in bounded
// memory instead of buffering until EOF.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	caai "repro"
	"repro/internal/pcapgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caai-pcap:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("caai-pcap", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	model := fs.String("model", "", "load a saved model instead of retraining (see caai-train -save)")
	backend := fs.String("classifier", "randomforest", "classifier backend ("+strings.Join(caai.ClassifierBackends(), ", ")+")")
	conditions := fs.Int("conditions", 25, "training conditions per (algorithm, wmax) pair when no -model is given")
	seed := fs.Int64("seed", 1, "random seed (training and -gen)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of the table")
	parallelism := fs.Int("parallelism", 0, "classification parallelism (0 = all CPUs)")
	timings := fs.Bool("timings", false, "record and report per-stage wall-clock timings (decode, feature, classify)")
	maxFlows := fs.Int("max-flows", 0, "bound on concurrently tracked flows (0 = default)")
	follow := fs.Bool("follow", false, "stream continuously: classify and print each flow as it closes (idle flows expire) instead of waiting for end of input; suits endless live captures on stdin")
	gen := fs.String("gen", "", "generate a synthetic capture for the comma-separated algorithms instead of ingesting one")
	out := fs.String("o", "", "output file for -gen (default stdout)")
	format := fs.String("format", "pcap", "capture format for -gen (pcap or pcapng)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil
		}
		return err
	}

	if *gen != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("-gen writes a capture and takes no input file")
		}
		return generate(stdout, *gen, *out, *format, *seed)
	}

	if fs.NArg() != 1 {
		return fmt.Errorf("exactly one capture file is required (or - for stdin)")
	}
	input := fs.Arg(0)

	// Status lines would corrupt the machine-readable document, so -json
	// keeps stdout for the JSON alone.
	status := stdout
	if *jsonOut {
		status = io.Discard
	}
	id, err := loadOrTrain(status, *model, *backend, *conditions, *seed, fs)
	if err != nil {
		return err
	}

	var r io.Reader
	if input == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	if *follow {
		return followStream(stdout, id, r, *jsonOut, *maxFlows)
	}

	opts := caai.CaptureOptions{Parallelism: *parallelism, Timings: *timings}
	opts.Tracker.MaxFlows = *maxFlows
	pairs, stats, err := id.IdentifyCapture(r, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSON(stdout, pairs, stats, *timings)
	}
	writeTable(stdout, pairs, stats)
	if *timings {
		writeTimingsSummary(stdout, pairs)
	}
	return nil
}

// followStream runs the streaming pipeline: capture bytes in (typically
// an endless live capture piped to stdin), one result line out per flow
// pair as it closes. With -json each line is a self-contained JSON
// object (NDJSON); otherwise a table row prints under a one-time header.
func followStream(stdout io.Writer, id *caai.Identifier, r io.Reader, jsonOut bool, maxFlows int) error {
	var opts caai.StreamOptions
	opts.Tracker.MaxFlows = maxFlows
	enc := json.NewEncoder(stdout)
	if !jsonOut {
		fmt.Fprintf(stdout, "%-22s %-22s %7s %8s  %s\n", "SERVER", "CLIENT", "PKTS", "RTT", "IDENTIFICATION")
	}
	var results int64
	stats, err := id.IdentifyStream(context.Background(), r, opts, func(p caai.FlowIdentification) {
		results++
		if jsonOut {
			_ = enc.Encode(toJSONResult(p))
			return
		}
		client := p.A.Client
		pkts := p.A.Packets
		if p.B != nil {
			client += "+"
			pkts += p.B.Packets
		}
		fmt.Fprintf(stdout, "%-22s %-22s %7d %8s  %s\n",
			p.A.Server, client, pkts, p.A.RTT.Round(time.Millisecond), p.ID)
	})
	if jsonOut {
		_ = enc.Encode(map[string]any{"stats": stats})
	} else {
		fmt.Fprintf(stdout, "\n%d packets, %d TCP segments, %d flows (%d classifiable), %d results\n",
			stats.Packets, stats.TCPSegments, stats.Flows, stats.Classifiable, results)
	}
	return err
}

// writeTimingsSummary totals the per-stage spans over every classified
// pair for the -timings table footer.
func writeTimingsSummary(w io.Writer, pairs []caai.FlowIdentification) {
	var total caai.StageTimings
	for _, p := range pairs {
		for s := 0; s < caai.NumStages; s++ {
			total[s] += p.ID.Timings[s]
		}
	}
	fmt.Fprintf(w, "\nstage timings over %d pair(s) (total %s):\n", len(pairs), total.Total())
	for s := 0; s < caai.NumStages; s++ {
		if total[s] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s %s\n", caai.Stage(s), total[s])
	}
}

// loadOrTrain resolves the model exactly as caai-probe does: -model loads
// a saved file (and excludes -classifier), otherwise a fresh model is
// trained on the simulated testbed.
func loadOrTrain(stdout io.Writer, model, backend string, conditions int, seed int64, fs *flag.FlagSet) (*caai.Identifier, error) {
	if model != "" {
		classifierSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "classifier" {
				classifierSet = true
			}
		})
		if classifierSet {
			return nil, fmt.Errorf("-model and -classifier are mutually exclusive: a loaded model already fixes the backend")
		}
		id, err := caai.LoadModel(model)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "loaded %s model from %s\n", id.Classifier().Name(), model)
		return id, nil
	}
	fmt.Fprintf(stdout, "training CAAI %s (%d conditions per pair)...\n", backend, conditions)
	return caai.TrainWithClassifier(caai.TrainingOptions{ConditionsPerPair: conditions, Seed: seed}, backend)
}

// generate writes a synthetic testbed capture for the named algorithms.
func generate(stdout io.Writer, algorithms, out, format string, seed int64) error {
	var specs []pcapgen.ServerSpec
	for i, alg := range strings.Split(algorithms, ",") {
		alg = strings.TrimSpace(alg)
		if alg == "" {
			continue
		}
		if _, err := caai.NewAlgorithm(alg); err != nil {
			return err
		}
		specs = append(specs, pcapgen.ServerSpec{Algorithm: alg, Seed: seed + int64(i)})
	}
	if len(specs) == 0 {
		return fmt.Errorf("-gen needs at least one algorithm")
	}
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	results, err := pcapgen.Generate(w, specs, pcapgen.Options{Format: format})
	if err != nil {
		return err
	}
	dest := "stdout"
	if out != "" {
		dest = out
	}
	if out != "" { // keep stdout parseable when the capture itself goes there
		valid := 0
		for _, res := range results {
			if res.Valid {
				valid++
			}
		}
		fmt.Fprintf(stdout, "wrote %s capture of %d server(s) (%d valid gatherings) to %s\n",
			format, len(specs), valid, dest)
	}
	return nil
}

// jsonResult is the -json wire form of one identification.
type jsonResult struct {
	Server     string    `json:"server"`
	ClientA    string    `json:"client_a"`
	ClientB    string    `json:"client_b,omitempty"`
	Packets    int64     `json:"packets"`
	RTTMs      float64   `json:"rtt_ms"`
	Label      string    `json:"label,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	Special    string    `json:"special,omitempty"`
	Valid      bool      `json:"valid"`
	Reason     string    `json:"reason,omitempty"`
	Wmax       int       `json:"wmax,omitempty"`
	MSS        int       `json:"mss,omitempty"`
	Features   []float64 `json:"features,omitempty"`
	// Timings is the per-stage wall-clock breakdown in milliseconds,
	// present only under -timings (keys follow internal/telemetry's stage
	// names).
	Timings map[string]float64 `json:"timings_ms,omitempty"`
	Text    string             `json:"text"`
}

func toJSONResult(p caai.FlowIdentification) jsonResult {
	out := jsonResult{
		Server:  p.A.Server,
		ClientA: p.A.Client,
		Packets: p.A.Packets,
		RTTMs:   float64(p.A.RTT) / float64(time.Millisecond),
		Valid:   p.ID.Valid,
		Reason:  string(p.ID.Reason),
		Wmax:    p.ID.Wmax,
		MSS:     p.ID.MSS,
		Text:    p.ID.String(),
	}
	if p.B != nil {
		out.ClientB = p.B.Client
		out.Packets += p.B.Packets
	}
	switch {
	case !p.ID.Valid:
	case p.ID.Special != 0:
		out.Special = p.ID.Special.String()
	default:
		out.Label = p.ID.Label
		out.Confidence = p.ID.Confidence
		out.Features = append([]float64(nil), p.ID.Vector.Slice()...)
	}
	return out
}

func writeJSON(w io.Writer, pairs []caai.FlowIdentification, stats caai.CaptureStats, timings bool) error {
	results := make([]jsonResult, 0, len(pairs))
	for _, p := range pairs {
		jr := toJSONResult(p)
		if timings {
			jr.Timings = map[string]float64{}
			for s := 0; s < caai.NumStages; s++ {
				if d := p.ID.Timings[s]; d != 0 {
					jr.Timings[caai.Stage(s).String()] = float64(d) / float64(time.Millisecond)
				}
			}
		}
		results = append(results, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"stats": stats, "results": results})
}

func writeTable(w io.Writer, pairs []caai.FlowIdentification, stats caai.CaptureStats) {
	fmt.Fprintf(w, "\n%d packets, %d TCP segments, %d flows (%d classifiable)\n\n",
		stats.Packets, stats.TCPSegments, stats.Flows, stats.Classifiable)
	fmt.Fprintf(w, "%-22s %-22s %7s %8s %6s  %s\n", "SERVER", "CLIENT", "PKTS", "RTT", "WMAX", "IDENTIFICATION")
	for _, p := range pairs {
		pkts := p.A.Packets
		client := p.A.Client
		if p.B != nil {
			pkts += p.B.Packets
			client += "+"
		}
		wmax := "-"
		if p.ID.Wmax > 0 {
			wmax = fmt.Sprint(p.ID.Wmax)
		}
		fmt.Fprintf(w, "%-22s %-22s %7d %8s %6s  %s\n",
			p.A.Server, client, pkts, p.A.RTT.Round(time.Millisecond), wmax, p.ID)
	}
}
