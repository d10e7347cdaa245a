package telemetry

import (
	"math"
	"runtime/metrics"
	"time"
)

// RuntimeStats is a point-in-time read of the Go runtime's own health
// signals, surfaced next to the service counters so a latency spike can
// be attributed to GC pressure or scheduler backlog without a second
// tool. Quantiles come from the runtime's cumulative float64 histograms
// (process lifetime, not windowed).
type RuntimeStats struct {
	Goroutines        int64   `json:"goroutines"`
	HeapBytes         int64   `json:"heap_bytes"`
	GCCycles          int64   `json:"gc_cycles"`
	GCPauseP50Us      float64 `json:"gc_pause_p50_us"`
	GCPauseP99Us      float64 `json:"gc_pause_p99_us"`
	SchedLatencyP50Us float64 `json:"sched_latency_p50_us"`
	SchedLatencyP99Us float64 `json:"sched_latency_p99_us"`
}

// runtimeSamples are the runtime/metrics names ReadRuntimeStats reads,
// in the order it indexes them; fixed set, sampled on demand
// (snapshot/scrape time) so there is no background sampler goroutine to
// manage.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// ReadRuntimeStats samples the runtime metrics now.
func ReadRuntimeStats() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	count := func(i int) int64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return int64(samples[i].Value.Uint64())
	}
	quantileUs := func(i int, q float64) float64 {
		if samples[i].Value.Kind() != metrics.KindFloat64Histogram {
			return 0
		}
		return float64HistQuantile(samples[i].Value.Float64Histogram(), q) * usPerSec
	}
	return RuntimeStats{
		Goroutines:        count(0),
		HeapBytes:         count(1),
		GCCycles:          count(2),
		GCPauseP50Us:      quantileUs(3, 0.5),
		GCPauseP99Us:      quantileUs(3, 0.99),
		SchedLatencyP50Us: quantileUs(4, 0.5),
		SchedLatencyP99Us: quantileUs(4, 0.99),
	}
}

// DeclareRuntime declares the runtime readings on r: RuntimeStats
// under key and one Prometheus family per reading, in seconds where the
// JSON has microseconds. Every render samples the runtime afresh.
func DeclareRuntime(r *Registry, key string) {
	r.Family(key, func() any { return ReadRuntimeStats() }, "", "", "", nil)
	r.GaugeFunc("", "caai_runtime_goroutines", "Live goroutines.", func() int64 { return ReadRuntimeStats().Goroutines })
	r.GaugeFunc("", "caai_runtime_heap_bytes", "Bytes of live heap objects.", func() int64 { return ReadRuntimeStats().HeapBytes })
	r.CounterFunc("", "caai_runtime_gc_cycles_total", "Completed GC cycles.", func() int64 { return ReadRuntimeStats().GCCycles })
	r.FloatFunc("", "caai_runtime_gc_pause_p50_seconds", "Median stop-the-world GC pause.", KindGauge, func() float64 { return ReadRuntimeStats().GCPauseP50Us / usPerSec })
	r.FloatFunc("", "caai_runtime_gc_pause_p99_seconds", "p99 stop-the-world GC pause.", KindGauge, func() float64 { return ReadRuntimeStats().GCPauseP99Us / usPerSec })
	r.FloatFunc("", "caai_runtime_sched_latency_p50_seconds", "Median goroutine scheduling latency.", KindGauge, func() float64 { return ReadRuntimeStats().SchedLatencyP50Us / usPerSec })
	r.FloatFunc("", "caai_runtime_sched_latency_p99_seconds", "p99 goroutine scheduling latency.", KindGauge, func() float64 { return ReadRuntimeStats().SchedLatencyP99Us / usPerSec })
}

const usPerSec = float64(time.Second / time.Microsecond)

// float64HistQuantile estimates a quantile of a runtime/metrics
// Float64Histogram by cumulative bucket walk, answering the holding
// bucket's finite upper bound (runtime buckets can be open-ended on
// both sides; infinities fall back to the nearest finite edge).
func float64HistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			// Bucket i spans (Buckets[i], Buckets[i+1]].
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) { // open-ended top bucket
				hi = h.Buckets[i]
			}
			if math.IsInf(hi, 0) || math.IsNaN(hi) {
				return 0
			}
			return hi
		}
	}
	return 0
}
