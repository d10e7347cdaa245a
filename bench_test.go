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

// BenchmarkSuite runs the hot-path suite of internal/bench, the one
// cmd/caai-bench runs standalone and persists to BENCH_<n>.json (see
// DESIGN.md section 5.3), with each case under its suite name, e.g.
// BenchmarkSuite/service/identify_miss. The perf history and the budget
// gate reference those names.
func BenchmarkSuite(b *testing.B) {
	cases, err := bench.Suite(benchCtx(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.Name, c.Bench)
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
