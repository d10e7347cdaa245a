package main

// metricSpec is one reported metric as BENCHMARK.json declares it. bound
// applies to end-to-end metrics only; layer and moves document a per-layer
// metric: the layer it measures, and the end-to-end metrics and workloads
// a change to that layer should move (every other pairing is predicted
// flat).
type metricSpec struct {
	name, unit, better string
	bound              float64
	layer, moves       string
}

// workloadNames are the benchmark's workloads, in BENCHMARK.json order.
var workloadNames = []string{"identify", "batch", "census", "capture"}

// endToEnd are the metrics a run with --trace 0 reports. The README says
// what the operation behind p50_ms is on each workload, and how each bound
// was derived from the measured spread.
var endToEnd = []metricSpec{
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "ids_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "server_cpu_ms_per_id", unit: "ms", better: "lower", bound: 0.15},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	probing = "identify, batch, census; flat on capture"
	all     = "every workload"
)

// perLayer are the metrics a run with --trace 1 reports: the traced
// replay's attribution of the workload's own work, then per-call costs of
// single layers measured on seeded inputs.
var perLayer = []metricSpec{
	{name: "replay.us_per_id", unit: "us", better: "lower", layer: "pipeline", moves: "p50_ms, ids_per_s, server_cpu_ms_per_id on " + all},
	{name: "replay.gather_us_per_id", unit: "us", better: "lower", layer: "probe / pcap+flow", moves: "p50_ms, ids_per_s, server_cpu_ms_per_id on " + all},
	{name: "replay.feature_us_per_id", unit: "us", better: "lower", layer: "feature", moves: "p50_ms on identify"},
	{name: "replay.classify_us_per_id", unit: "us", better: "lower", layer: "forest", moves: "p50_ms on identify and batch (predicted within noise)"},
	{name: "replay.self_us_per_id", unit: "us", better: "lower", layer: "core / engine / census", moves: "server_cpu_ms_per_id on " + all},
	{name: "wire.segments_per_id", unit: "count", better: "lower", layer: "probe", moves: "p50_ms, ids_per_s on " + probing},
	{name: "wire.acks_per_id", unit: "count", better: "lower", layer: "probe", moves: "p50_ms, ids_per_s on " + probing},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", layer: "bench", moves: "none (replay instrumentation cost)"},
	{name: "service.overhead_share", unit: "share", better: "lower", layer: "service", moves: "server_cpu_ms_per_id on " + all},
	{name: "host.cpu_busy_share", unit: "share", better: "higher", layer: "host", moves: "shows whether p50_ms and ids_per_s are CPU-bound on " + all},
	{name: "loadgen.cpu_share", unit: "share", better: "lower", layer: "host", moves: "none (load generator's share of the CPUs)"},
	{name: "core.training_set_s", unit: "s", better: "lower", layer: "core", moves: "setup_s"},
	{name: "forest.train_s", unit: "s", better: "lower", layer: "forest", moves: "setup_s"},
	{name: "netem.drop_ns", unit: "ns", better: "lower", layer: "netem", moves: "p50_ms, ids_per_s on " + probing + "; setup_s"},
	{name: "netem.jitter_ns", unit: "ns", better: "lower", layer: "netem", moves: "p50_ms, ids_per_s on " + probing + "; setup_s"},
	{name: "tcpsim.deliver_ack_ns", unit: "ns", better: "lower", layer: "tcpsim", moves: "p50_ms, ids_per_s on " + probing + "; setup_s"},
	{name: "tcpsim.burst_ns_per_segment", unit: "ns", better: "lower", layer: "tcpsim", moves: "p50_ms, ids_per_s on " + probing + "; setup_s"},
	{name: "cc.on_ack_ns.BIC", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.CTCP1", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.CTCP2", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.CUBIC1", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.CUBIC2", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.HSTCP", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.HTCP", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.ILLINOIS", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.RENO", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.STCP", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.VEGAS", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.VENO", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.WESTWOOD", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "cc.on_ack_ns.YEAH", unit: "ns", better: "lower", layer: "cc", moves: ccMoves},
	{name: "websim.open_ns", unit: "ns", better: "lower", layer: "websim", moves: "p50_ms, ids_per_s on " + probing},
	{name: "probe.ns_per_segment", unit: "ns", better: "lower", layer: "probe", moves: "p50_ms, ids_per_s, server_cpu_ms_per_id on " + probing + "; setup_s"},
	{name: "feature.extract_us", unit: "us", better: "lower", layer: "feature", moves: "p50_ms on identify"},
	{name: "forest.classify_us", unit: "us", better: "lower", layer: "forest", moves: "p50_ms on identify (predicted within noise)"},
	{name: "forest.batch_us_per_sample", unit: "us", better: "lower", layer: "forest", moves: "p50_ms on batch (predicted within noise)"},
	{name: "pcap.decode_ns_per_packet", unit: "ns", better: "lower", layer: "pcap", moves: "p50_ms, ids_per_s, server_cpu_ms_per_id on capture"},
	{name: "pcap.sniff_ns_per_packet", unit: "ns", better: "lower", layer: "pcap", moves: "p50_ms on capture (streamed uploads)"},
	{name: "flow.observe_ns_per_packet", unit: "ns", better: "lower", layer: "flow", moves: "p50_ms, ids_per_s, server_cpu_ms_per_id on capture"},
	{name: "service.hit_us", unit: "us", better: "lower", layer: "service", moves: "server_cpu_ms_per_id on identify (cache hits are half its requests)"},
	{name: "service.hit_allocs", unit: "count", better: "lower", layer: "service", moves: "server_cpu_ms_per_id on identify"},
	{name: "service.decode_us", unit: "us", better: "lower", layer: "service", moves: "server_cpu_ms_per_id on identify"},
	{name: "service.encode_us", unit: "us", better: "lower", layer: "service", moves: "server_cpu_ms_per_id on identify, batch"},
}

const ccMoves = "p50_ms, ids_per_s on " + probing + ", weighted by the workload's algorithm mix; setup_s"
