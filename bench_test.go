package caai

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md section 4). Each benchmark regenerates its
// exhibit at reduced scale and reports the headline metric the paper
// reports (accuracy, valid-trace percentage, ...) via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness. The
// cmd/caai-figures binary prints the full rows at paper scale.

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cc"
	"repro/internal/experiments"
	"repro/internal/forest"
)

// benchCtx lazily builds one reduced-scale experiment context shared by
// the benchmarks, so the (expensive) training set is generated once and
// excluded from per-benchmark timing.
var (
	benchCtxOnce sync.Once
	benchCtxVal  *experiments.Context
)

func benchCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtxVal = experiments.NewQuickContext()
		if _, err := benchCtxVal.TrainingSet(); err != nil {
			b.Fatal(err)
		}
		if _, err := benchCtxVal.Model(); err != nil {
			b.Fatal(err)
		}
	})
	return benchCtxVal
}

// BenchmarkTableIRegistry regenerates the Table I algorithm catalogue.
func BenchmarkTableIRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2Environments regenerates the environment RTT schedules.
func BenchmarkFig2Environments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig2(); len(out) == 0 {
			b.Fatal("empty schedules")
		}
	}
}

// BenchmarkFig3Traces regenerates the 14-algorithm trace gallery of
// Fig. 3 (28 gathering sessions plus panel o).
func BenchmarkFig3Traces(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 14 {
			b.Fatalf("got %d algorithms", len(results))
		}
	}
}

// BenchmarkFig4RTTDatabase regenerates the mean-RTT CDF of Fig. 4.
func BenchmarkFig4RTTDatabase(b *testing.B) {
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig4(ctx); len(out) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkFig6RequestLimits regenerates the repeated-request CDF of
// Fig. 6 against a sampled population.
func BenchmarkFig6RequestLimits(b *testing.B) {
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig6(ctx); len(out) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkFig7PageSizes regenerates the page-size CDFs of Fig. 7.
func BenchmarkFig7PageSizes(b *testing.B) {
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig7(ctx); len(out) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkFig10RTTStddev regenerates the RTT-stddev CDF of Fig. 10.
func BenchmarkFig10RTTStddev(b *testing.B) {
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig10(ctx); len(out) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkFig11LossRates regenerates the loss-rate CDF of Fig. 11.
func BenchmarkFig11LossRates(b *testing.B) {
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig11(ctx); len(out) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkFig12ParameterSweep regenerates a reduced K x F grid of the
// Fig. 12 cross-validation sweep and reports the best accuracy.
func BenchmarkFig12ParameterSweep(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	var best float64
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig12(ctx, []int{5, 40, 80}, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Accuracy > best {
				best = p.Accuracy
			}
		}
	}
	b.ReportMetric(best*100, "best-accuracy-%")
}

// BenchmarkTableIIMSS regenerates the minimum-MSS table.
func BenchmarkTableIIMSS(b *testing.B) {
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		if out := experiments.TableII(ctx); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIIICrossValidation regenerates the Table III confusion
// matrix (paper overall: 96.98%) and reports the measured accuracy.
func BenchmarkTableIIICrossValidation(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc*100, "accuracy-%")
}

// BenchmarkTableIVCensus regenerates the census (paper: 47% valid traces,
// BIC/CUBIC plurality) and reports the valid-trace share and ground-truth
// agreement.
func BenchmarkTableIVCensus(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	var valid, agree float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV(ctx)
		if err != nil {
			b.Fatal(err)
		}
		valid = 100 * float64(res.Report.Valid()) / float64(res.Report.Total)
		agree = res.Report.Accuracy() * 100
	}
	b.ReportMetric(valid, "valid-%")
	b.ReportMetric(agree, "truth-agreement-%")
}

// BenchmarkSpecialTraces regenerates the Figs. 13-17 special traces.
func BenchmarkSpecialTraces(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SpecialTraces(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierComparison regenerates the Weka-style classifier
// comparison and reports the random forest margin.
func BenchmarkClassifierComparison(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	var rf float64
	for i := 0; i < b.N; i++ {
		acc, _, err := experiments.ClassifierComparison(ctx)
		if err != nil {
			b.Fatal(err)
		}
		rf = acc["RandomForest"]
	}
	b.ReportMetric(rf*100, "rf-accuracy-%")
}

// BenchmarkAblationEnvB measures the two-environment design choice.
func BenchmarkAblationEnvB(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationEnvB(ctx, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.With*100, "with-%")
	b.ReportMetric(res.Without*100, "without-%")
}

// BenchmarkAblationFRTO measures the dup-ACK counter-measure.
func BenchmarkAblationFRTO(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationFRTO(ctx, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.With*100, "with-%")
	b.ReportMetric(res.Without*100, "without-%")
}

// BenchmarkAblationTimeoutVsLossEvent regenerates the Section IV-B
// comparison of timeout-based versus loss-event-based beta measurement.
func BenchmarkAblationTimeoutVsLossEvent(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TimeoutVsLossEvent(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTBITSurvey regenerates the TBIT component survey (initial
// window, loss recovery, loss-event beta).
func BenchmarkTBITSurvey(b *testing.B) {
	ctx := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TBITSurvey(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the hot paths ---
//
// These delegate to internal/bench, the shared suite cmd/caai-bench runs
// standalone and persists to BENCH_<n>.json (see DESIGN.md section on the
// perf-regression harness). Names here stay stable because the perf
// history and the CI budget gate reference the suite's measurements.

// BenchmarkGatherSession measures one full environment-A gathering session
// against a lossless CUBIC2 testbed server with a reused prober.
func BenchmarkGatherSession(b *testing.B) {
	bench.GatherSession()(b)
}

// BenchmarkFeatureExtraction measures CAAI step 2 on a gathered trace with
// reused scratch.
func BenchmarkFeatureExtraction(b *testing.B) {
	bench.FeatureExtraction()(b)
}

// BenchmarkForestClassify measures CAAI step 3 on a trained model.
func BenchmarkForestClassify(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	bench.ForestClassify(model)(b)
}

// BenchmarkForestVotesInto measures the arena vote walk with a reused
// buffer (the zero-allocation classification core).
func BenchmarkForestVotesInto(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	f, ok := model.(*forest.Forest)
	if !ok {
		b.Skipf("model backend is %T, not a forest", model)
	}
	bench.ForestVotesInto(f)(b)
}

// BenchmarkForestClassifyBatch measures a 64-sample block classified one
// vector at a time into caller-owned votes (one op = one block; see the
// ns/sample extra metric for the per-sample cost against
// BenchmarkForestClassify).
func BenchmarkForestClassifyBatch(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	f, ok := model.(*forest.Forest)
	if !ok {
		b.Skipf("model backend is %T, not a forest", model)
	}
	bench.ForestClassifyBatch(f, 64)(b)
}

// BenchmarkForestTrain measures growing the paper's K=80 forest.
func BenchmarkForestTrain(b *testing.B) {
	ctx := benchCtx(b)
	ds, err := ctx.TrainingSet()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest.Train(ds, forest.Config{Trees: 80, Subspace: 4, Seed: int64(i)})
	}
}

// BenchmarkAlgorithmOnAck measures the per-ACK cost of each congestion
// avoidance algorithm (the simulation's innermost loop).
func BenchmarkAlgorithmOnAck(b *testing.B) {
	for _, name := range cc.Names() {
		b.Run(name, func(b *testing.B) {
			alg, err := cc.New(name)
			if err != nil {
				b.Fatal(err)
			}
			c := cc.NewConn(536, 2)
			c.Cwnd, c.Ssthresh = 300, 300
			alg.Reset(c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 0 {
					c.Round++
				}
				alg.OnAck(c, 1, 1e9)
			}
		})
	}
}

// BenchmarkIdentifyMix measures the scalar cache-miss pipeline over the
// 14 algorithms round-robin under measured-database conditions, one fresh
// seed per op through a reused core.Session.
func BenchmarkIdentifyMix(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	bench.IdentifyMix(model)(b)
}

// BenchmarkIdentifyBatch measures the batch identification engine: many
// (server, condition) jobs through a pretrained model on the bounded
// worker pool with per-worker sessions, the production
// train-once/identify-many hot path.
func BenchmarkIdentifyBatch(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	bench.IdentifyBatch(model, 64)(b)
}

// BenchmarkPcapDecode measures the pcap decoder alone (record framing
// and the TCP/IP parse), one packet per op, over a two-server probe
// capture (ns/packet).
func BenchmarkPcapDecode(b *testing.B) {
	bench.PcapDecode()(b)
}

// BenchmarkPcapIngest measures the passive pipeline end to end: pcap
// decode, TCP flow reassembly, congestion-window reconstruction, and
// classification of a synthetic two-server capture (MB/s of capture).
func BenchmarkPcapIngest(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	bench.PcapIngest(model)(b)
}

// BenchmarkPcapStreamIngest measures the streaming pipeline (bounded
// ring, decode, online flow tracking) over a live-monitoring workload
// of concurrent MTU-sized bulk transfers (MB/s of capture).
func BenchmarkPcapStreamIngest(b *testing.B) {
	bench.PcapStreamIngest()(b)
}

// BenchmarkPcapStreamProbeCapture measures streaming identification
// (ring, decode, tracking, pairing, classification) over an eight-server
// probe capture gathered one connection at a time (MB/s of capture).
func BenchmarkPcapStreamProbeCapture(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	bench.PcapStreamProbeCapture(model)(b)
}

// BenchmarkServiceIdentify measures the HTTP service path of
// internal/service end to end (JSON decode, registry lookup, cache,
// pipeline, JSON encode): "hit" serves one request repeatedly from the
// LRU result cache, "miss" forces a fresh probe every iteration by
// varying the seed.
func BenchmarkServiceIdentify(b *testing.B) {
	ctx := benchCtx(b)
	model, err := ctx.Model()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", bench.ServiceIdentify(model, false))
	b.Run("miss", bench.ServiceIdentify(model, true))
}
