// Command e2ebench is the repository's end-to-end benchmark. It launches a
// real caai-serve, drives it over loopback HTTP with one of four workloads
// (identify, batch, census, capture), checks every answer against the
// in-process pipeline, and prints each metric by name with its unit. With
// --trace 1 it instead reports per-layer metrics from a traced in-process
// replay of the workload's inputs plus single-layer benchmarks. See
// README.md for the workloads, metrics and bounds.
//
// Usage, from the repository root (run.sh builds both programs first):
//
//	bash e2ebench/run.sh --workload identify --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/service"
)

func main() {
	var cfg config
	var seconds, traceOn int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds (whole number)")
	flag.IntVar(&traceOn, "trace", 0, "1 reports per-layer metrics from the traced replay, 0 end-to-end metrics")
	flag.StringVar(&cfg.serve, "serve", "", "caai-serve binary to launch")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory the Chrome trace of a traced run is written under")
	flag.Parse()
	if err := cfg.plan(seconds, traceOn); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := runBench(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	traced   bool
	serve    string
	out      string
	// launches is how many cold starts setup_s is the median of (the last
	// one serves the workload); warm precedes rounds measured rounds of
	// length round.
	launches int
	warm     time.Duration
	rounds   int
	round    time.Duration
}

// Round plan: end-to-end runs measure ten rounds and report per-round
// medians, so host drift within a run moves one round, not the result.
// Traced runs give half the time to two rounds (for the CPU and overhead
// shares) and the rest to the replay and the layer benchmarks.
const (
	setupLaunches = 7
	measureRounds = 10
	tracedRounds  = 2
	maxWarm       = 2 * time.Second
)

// plan validates the command line and derives the round plan.
func (c *config) plan(seconds, traceOn int) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == c.workload
	}
	switch {
	case !known:
		return fmt.Errorf("--workload must be one of %s", strings.Join(workloadNames, ", "))
	case seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case traceOn != 0 && traceOn != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case c.serve == "":
		return fmt.Errorf("--serve names no caai-serve binary (run the benchmark through run.sh)")
	}
	c.traced = traceOn == 1
	total := time.Duration(seconds) * time.Second
	c.launches, c.rounds, c.round = setupLaunches, measureRounds, total/measureRounds
	if c.traced {
		c.launches, c.rounds, c.round = 1, tracedRounds, total/(2*tracedRounds)
	}
	c.warm = min(maxWarm, c.round)
	return nil
}

// result is everything one run prints.
type result struct {
	cfg       config
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	rounds    map[string][]float64 // per-round values of end-to-end metrics
	ungated   []named              // printed after the reported metrics
	report    []string             // diagnostics printed above the result
}

// runBench performs one run.
func runBench(ctx context.Context, cfg config) (*result, error) {
	res := &result{cfg: cfg, metrics: map[string]float64{}, rounds: map[string][]float64{}}
	in := newInputs(cfg.seed)
	model, trainTimes, err := train()
	if err != nil {
		return nil, err
	}
	id := core.NewIdentifier(model)
	w, err := newWorkload(cfg.workload, in, id)
	if err != nil {
		return nil, err
	}

	var setups []float64
	var srv *server
	for i := 0; i < cfg.launches; i++ {
		// Timed from exec to the first 200 on /healthz.
		var clock stealClock
		clock.start()
		s, err := launch(ctx, cfg.serve)
		if err != nil {
			return nil, err
		}
		d, steal := clock.stop()
		setups = append(setups, withoutSteal(d.Seconds(), steal, launchSlope))
		res.report = append(res.report, fmt.Sprintf("launch %d: %.4f s as measured, steal %.3f, %.4f s without steal", i, d.Seconds(), steal, setups[i]))
		if i < cfg.launches-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	var stopOnce sync.Once
	stopServer := func() { stopOnce.Do(srv.stop) }
	defer stopServer()

	clients := make([]*client, w.conns())
	for i := range clients {
		clients[i] = newClient(srv.base)
		defer clients[i].close()
	}
	rss := startRSSSampler(srv.pid())
	defer rss.close()

	if err := w.prepare(ctx, clients); err != nil {
		return nil, err
	}
	if _, err := runRound(ctx, w, clients, srv.pid(), rss, cfg.warm); err != nil {
		return nil, err
	}
	before, err := clients[0].metrics(ctx)
	if err != nil {
		return nil, err
	}
	var rounds []roundResult
	var all tally
	for r := 0; r < cfg.rounds; r++ {
		rr, err := runRound(ctx, w, clients, srv.pid(), rss, cfg.round)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		all.add(&rr.t)
	}
	after, err := clients[0].metrics(ctx)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = all.ops, all.failed
	res.problems = append(res.problems, all.errs...)
	res.report = append(res.report, diagnostics(cfg.workload, &all, rounds, before, after)...)
	res.ungated = ungated(cfg.workload, &all)

	if !cfg.traced {
		if err := w.check(ctx, clients[0]); err != nil {
			res.failed++
			res.problems = append(res.problems, "check: "+err.Error())
		}
		for _, m := range endToEnd {
			if m.name == "setup_s" {
				res.rounds[m.name] = setups
				continue
			}
			for _, rr := range rounds {
				res.rounds[m.name] = append(res.rounds[m.name], rr.value(cfg.workload, m.name))
			}
		}
		for name, vs := range res.rounds {
			res.metrics[name] = median(vs)
		}
		// Some census populations push the server to 300 MB for several
		// rounds in a row, so rss_mb is the resident set three rounds in
		// four reach: the first quartile of the rounds' medians.
		res.metrics["rss_mb"], _ = quartiles(res.rounds["rss_mb"])
	} else {
		// The replay and layer benchmarks run alone on the machine.
		stopServer()
		if err := traceLayers(cfg, w, in, id, rounds, res); err != nil {
			res.failed++
			res.problems = append(res.problems, "replay: "+err.Error())
		}
		res.metrics["core.training_set_s"] = trainTimes[0]
		res.metrics["forest.train_s"] = trainTimes[1]
	}
	res.correct = res.failed == 0 && ctx.Err() == nil
	return res, nil
}

// train builds the in-process copy of the model caai-serve trains at
// startup (its -train 12 -seed 2011 through caai.Train: the measured
// condition database, 12 conditions per pair, forest seed = seed + 1, the
// paper's 80 trees), timing the training set and the forest separately.
func train() (classify.Classifier, [2]float64, error) {
	var times [2]float64
	t0 := time.Now()
	ds, err := core.GenerateTrainingSet(netem.MeasuredDatabase(), core.TrainingConfig{ConditionsPerPair: 12, Seed: 2011})
	if err != nil {
		return nil, times, err
	}
	t1 := time.Now()
	f := forest.Train(ds, forest.Config{Seed: 2012})
	times[0], times[1] = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return f, times, nil
}

// maxRoundFailures stops a connection's round once this many operations
// failed, so a dead server fails the run quickly.
const maxRoundFailures = 20

// roundResult is one measured round.
type roundResult struct {
	t         tally
	elapsed   time.Duration
	serverCPU time.Duration
	loadCPU   time.Duration
	rssMB     []float64 // samples at 10 Hz
	steal     float64   // share of machine time the hypervisor took
}

// runRound drives the workload on every connection until the round's
// deadline; operations in flight at the deadline complete and count.
func runRound(ctx context.Context, w workload, cs []*client, pid int, rss *rssSampler, d time.Duration) (roundResult, error) {
	cpu0, err := procCPU(pid)
	if err != nil {
		return roundResult{}, err
	}
	self0 := selfCPU()
	host0, err := readHostCPU()
	if err != nil {
		return roundResult{}, err
	}
	rss.take()
	start := time.Now()
	deadline := start.Add(d)
	tallies := make([]tally, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[i]
			for time.Now().Before(deadline) && ctx.Err() == nil && t.failed < maxRoundFailures {
				w.op(ctx, c, t)
			}
		}()
	}
	wg.Wait()
	rr := roundResult{elapsed: time.Since(start), loadCPU: selfCPU() - self0, rssMB: rss.take()}
	cpu1, err := procCPU(pid)
	if err != nil {
		return roundResult{}, err
	}
	rr.serverCPU = cpu1 - cpu0
	host1, err := readHostCPU()
	if err != nil {
		return roundResult{}, err
	}
	rr.steal, _ = stealShare(host0, host1)
	for i := range tallies {
		rr.t.add(&tallies[i])
	}
	return rr, ctx.Err()
}

// stealSlopes gives, per workload and metric, the slope b of log(value)
// against log(1 − steal) over measured rounds, with which withoutSteal
// corrects each round's value. Identify's and capture's slopes were fitted
// by least squares on the 2-vCPU VM the bounds were measured on (README.md
// has the fits and their held-out checks): identify's requests are too
// short for stealClock and its two closed loops keep both CPUs busy with
// the server and the load generator, and the streaming pipeline's shards
// compete with the load generator the same way. Batch and census jobs are
// corrected one by one through stealClock, and their rounds' throughput
// scales with the machine time the hypervisor left (fitted: 1.02, 1.13).
var stealSlopes = map[string]map[string]float64{
	"identify": {"p50_ms": -0.35, "ids_per_s": 1.74, "server_cpu_ms_per_id": -0.57},
	"batch":    {"ids_per_s": 1},
	"census":   {"ids_per_s": 1},
	"capture":  {"p50_ms": -0.54, "ids_per_s": 1.59, "server_cpu_ms_per_id": -0.39},
}

// value is the round's reading of an end-to-end metric on workload.
func (r roundResult) value(workload, name string) float64 {
	var v float64
	switch name {
	case "p50_ms":
		v = median(r.t.opMs)
	case "ids_per_s":
		v = r.rate()
	case "server_cpu_ms_per_id":
		v = ms(r.serverCPU) / float64(r.t.ids)
	case "rss_mb":
		return median(r.rssMB)
	default:
		panic("e2ebench: no round value for " + name)
	}
	return withoutSteal(v, r.steal, stealSlopes[workload][name])
}

// rate returns the round's identifications per second as measured.
func (r roundResult) rate() float64 { return float64(r.t.ids) / r.elapsed.Seconds() }

// cpuShares returns the round's server+load-generator and load-generator
// CPU time as shares of all CPUs over the round.
func (r roundResult) cpuShares() (busy, loadgen float64) {
	capacity := float64(runtime.NumCPU()) * r.elapsed.Seconds()
	return (r.serverCPU + r.loadCPU).Seconds() / capacity, r.loadCPU.Seconds() / capacity
}

// traceLayers runs the traced replay and the layer benchmarks and fills
// the per-layer metrics.
func traceLayers(cfg config, w workload, in *inputs, id *core.Identifier, rounds []roundResult, res *result) error {
	out := map[string]float64{}
	rep, paths, err := w.replay()
	if err != nil {
		return err
	}
	// Untraced and traced passes alternate, three pairs, for the tracing
	// overhead. Passes are compared by this process's CPU time, which unlike
	// wall time leaves out what the hypervisor took.
	const pairs = 3
	var plainCPU, ratios []float64
	var traced replayOutcome
	for i := 0; i < 2*pairs; i++ {
		c0 := selfCPU()
		o, err := rep(i%2 == 1)
		if err != nil {
			return err
		}
		cpu := (selfCPU() - c0).Seconds()
		if i%2 == 0 {
			plainCPU = append(plainCPU, cpu)
			continue
		}
		traced = o
		ratios = append(ratios, cpu/plainCPU[len(plainCPU)-1])
	}
	plain := time.Duration(median(plainCPU) * float64(time.Second))
	out["bench.trace_overhead_pct"] = (median(ratios) - 1) * 100

	ids := float64(traced.ids)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / ids }
	var total time.Duration
	for _, s := range traced.spans {
		if s.parent < 0 {
			total += s.end.Sub(s.start)
		}
	}
	stages := map[string]time.Duration{}
	for name, d := range selfByName(traced.spans) {
		stages[stageOf(name)] += d
	}
	out["replay.us_per_id"] = us(total)
	out["replay.gather_us_per_id"] = us(stages["gather"])
	out["replay.feature_us_per_id"] = us(stages["feature"])
	out["replay.classify_us_per_id"] = us(stages["classify"])
	out["replay.self_us_per_id"] = us(stages["self"])

	var cpuPerRun, busy, loadgen []float64
	for _, rr := range rounds {
		cpuPerRun = append(cpuPerRun, float64(rr.serverCPU)/float64(time.Microsecond)/float64(rr.t.runs))
		b, l := rr.cpuShares()
		busy, loadgen = append(busy, b), append(loadgen, l)
	}
	out["service.overhead_share"] = 1 - float64(plain)/float64(time.Microsecond)/ids/median(cpuPerRun)
	out["host.cpu_busy_share"] = median(busy)
	out["loadgen.cpu_share"] = median(loadgen)

	paths = paths[:min(len(paths), wireSample)]
	segs, acks := wirePackets(paths)
	out["wire.segments_per_id"] = float64(segs) / float64(len(paths))
	out["wire.acks_per_id"] = float64(acks) / float64(len(paths))

	cal, err := calibrate(in, id)
	if err != nil {
		return err
	}
	for k, v := range cal {
		out[k] = v
	}
	for _, m := range perLayer {
		if v, ok := out[m.name]; ok {
			res.metrics[m.name] = v
		}
	}

	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, traced.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.report = append(res.report, fmt.Sprintf("replay: %d identifications, %d spans, Chrome trace in %s", traced.ids, len(traced.spans), path))
	return nil
}

// named is a metric printed by name, with its unit and sample count, but
// not gated: it is not reported on every workload, or it reads 0 on a
// healthy run (see the README).
type named struct {
	name  string
	value float64
	unit  string
	n     int
}

// ungated returns the workload's named metrics that are not gated.
func ungated(workload string, t *tally) []named {
	out := []named{{"failed_share", float64(t.failed) / float64(max(t.ops, 1)), "share", t.ops}}
	if t.labeled > 0 {
		out = append(out, named{"accuracy", float64(t.matched) / float64(t.labeled), "share", t.labeled})
	}
	switch workload {
	case "identify":
		out = append(out, named{"miss_p50_ms", median(t.opMs), "ms", len(t.opMs)}, named{"hit_p50_ms", median(t.fetchMs), "ms", len(t.fetchMs)})
	case "capture":
		if t.streamTime > 0 && t.uploadTime > 0 {
			out = append(out,
				named{"stream_mb_per_s", float64(t.streamBytes) / 1e6 / t.streamTime.Seconds(), "MB/s", len(t.opMs)},
				named{"upload_mb_per_s", float64(t.uploadBytes) / 1e6 / t.uploadTime.Seconds(), "MB/s", t.jobs})
		}
	}
	// Tails: the highest of p99 and p90 with at least ten samples beyond it.
	for _, tail := range []struct {
		name string
		xs   []float64
	}{{"service.op", t.opMs}, {"service.fetch", t.fetchMs}} {
		switch n := len(tail.xs); {
		case n >= 1000:
			out = append(out, named{tail.name + "_p99_ms", quantile(tail.xs, 0.99), "ms", n})
		case n >= 100:
			out = append(out, named{tail.name + "_p90_ms", quantile(tail.xs, 0.90), "ms", n})
		}
	}
	return out
}

// diagnostics renders the workload's per-round readings and counters.
func diagnostics(workload string, t *tally, rounds []roundResult, before, after service.MetricsSnapshot) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	var elapsed time.Duration
	for _, r := range rounds {
		elapsed += r.elapsed
	}
	add("operations: %d attempted, %d failed, %d identifications in %.1fs", t.ops, t.failed, t.ids, elapsed.Seconds())
	var rawRates, steals []float64
	for i, r := range rounds {
		busy, loadgen := r.cpuShares()
		rawRates, steals = append(rawRates, r.rate()), append(steals, r.steal)
		peak := 0.0
		for _, v := range r.rssMB {
			peak = max(peak, v)
		}
		add("round %d: %d ids in %.3fs, op p50 %.4g ms, fetch p50 %.4g ms, server cpu %.3fs, cpu busy %.3f, loadgen %.3f, steal %.3f, rss median %.2f peak %.2f MB",
			i, r.t.ids, r.elapsed.Seconds(), median(r.t.opMs), median(r.t.fetchMs), r.serverCPU.Seconds(), busy, loadgen, r.steal, median(r.rssMB), peak)
	}
	add("ids per second as measured: %.6g (median of rounds); hypervisor steal %.3f of machine time", median(rawRates), median(steals))
	if hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses; hits+misses > 0 {
		add("service.cache_hit_ratio: %.4f (%d hits, %d misses)", float64(hits)/float64(hits+misses), hits, misses)
	}
	if t.jobs > 0 {
		add("service.polls_per_job: %.2f", float64(t.polls)/float64(t.jobs))
	}
	if ids := float64(after.Identifies - before.Identifies); ids > 0 {
		var stages []string
		for name, a := range after.Stages {
			b := before.Stages[name]
			sum := float64(a.Count)*a.MeanUs - float64(b.Count)*b.MeanUs
			stages = append(stages, fmt.Sprintf("%s %.1f", name, sum/ids))
		}
		sort.Strings(stages)
		add("server stage time, us per identification run: %s", strings.Join(stages, ", "))
	}
	switch workload {
	case "identify":
		add("hot specs probed again after the cache evicted them: %d", t.recomputed)
	case "census":
		add("census.probes_per_target: %.3f, census.steals_per_job: %.2f", float64(t.probes)/float64(t.ids), float64(t.steals)/float64(max(t.jobs, 1)))
	case "capture":
		add("stream pairing: %d of %d streamed servers answered differently from the offline pipeline", t.streamDiffer, t.streamServers)
	}
	return out
}

// print writes the human-readable report, then the result object as the
// last line.
func (r *result) print(w io.Writer) error {
	cfg := r.cfg
	mode := "end-to-end"
	specs := endToEnd
	if cfg.traced {
		mode, specs = "per-layer (traced replay)", perLayer
	}
	fmt.Fprintf(w, "# e2ebench %s: workload=%s seed=%d, %d round(s) of %s after a %s warm-up, %s metrics\n",
		time.Now().UTC().Format(time.RFC3339), cfg.workload, cfg.seed, cfg.rounds, cfg.round, cfg.warm, mode)
	for _, line := range r.report {
		fmt.Fprintf(w, "# %s\n", line)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range specs {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
		if vs := r.rounds[m.name]; len(vs) > 0 {
			q1, q3 := quartiles(vs)
			fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d: %s (q1 %.6g, median %.6g, q3 %.6g)\n",
				m.name, v, m.unit, len(vs), fmtValues(vs), q1, median(vs), q3)
		} else {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	for _, m := range r.ungated {
		fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d, not gated\n", m.name, m.value, m.unit, m.n)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func fmtValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.6g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
