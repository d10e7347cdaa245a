package flow

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// IdentifyOptions tunes IdentifyCapture.
type IdentifyOptions struct {
	// Tracker bounds flow reassembly (zero value: defaults).
	Tracker Config
	// Parallelism bounds concurrent classification on the engine pool
	// (0 = all CPUs).
	Parallelism int
	// Timings enables per-stage span recording: each pair's ID.Timings
	// gets its feature/classify spans plus its share of decode+reassembly
	// time under StageGather (the passive pipeline's gather).
	Timings bool
	// Telemetry, when non-nil, aggregates every pair's spans into
	// per-stage histograms (implies Timings).
	Telemetry *telemetry.Pipeline
}

// CaptureStats summarizes one ingested capture for callers and the
// service's /metrics ingest counters.
type CaptureStats struct {
	// Packets, TCPSegments, SkippedPackets, TruncatedPackets mirror the
	// decoder's counters.
	Packets          int64 `json:"packets"`
	TCPSegments      int64 `json:"tcp_segments"`
	SkippedPackets   int64 `json:"skipped_packets"`
	TruncatedPackets int64 `json:"truncated_packets"`
	// Flows is every distinct 4-tuple; Classifiable counts flows whose
	// reconstructed trace is a valid CAAI trace.
	Flows        int64 `json:"flows"`
	Classifiable int64 `json:"classifiable"`
	// EvictedFlows/DroppedFlows/TruncatedFlows are the tracker's bound
	// enforcement counters.
	EvictedFlows   int64 `json:"evicted_flows,omitempty"`
	DroppedFlows   int64 `json:"dropped_flows,omitempty"`
	TruncatedFlows int64 `json:"truncated_flows,omitempty"`
}

// FlowIdentification is the classification of one flow pair: the
// environment-A flow, its optional environment-B companion, and the
// pipeline's identification.
type FlowIdentification struct {
	// A is the primary (timed-out) flow; B is the companion flow paired
	// with it (nil when the capture held no companion).
	A *FlowTrace
	B *FlowTrace
	// ID is the pipeline outcome (label, confidence, special shape, or
	// the invalid reason).
	ID core.Identification
}

// Reassemble decodes a capture stream and reconstructs its flows; the
// building block of IdentifyCapture for callers that want raw traces. On
// a malformed capture it returns the flows reassembled so far along with
// the error.
func Reassemble(r io.Reader, cfg Config) ([]*FlowTrace, CaptureStats, error) {
	var stats CaptureStats
	rd, err := pcap.NewReader(r)
	if err != nil {
		return nil, stats, err
	}
	tracker := NewTracker(cfg)
	var pkt pcap.Packet
	for {
		err = rd.Next(&pkt)
		if err != nil {
			break
		}
		tracker.Observe(&pkt)
	}
	flows := tracker.Finish()
	stats = captureStats(rd.Stats(), tracker.Stats())
	for _, f := range flows {
		if f.Trace != nil && f.Trace.Valid() {
			stats.Classifiable++
		}
	}
	if err != io.EOF {
		return flows, stats, err
	}
	return flows, stats, nil
}

// captureStats merges the decoder's and the tracker's counters; the
// caller counts Classifiable as it hands flows over.
func captureStats(ds pcap.Stats, ts Stats) CaptureStats {
	return CaptureStats{
		Packets:          ds.Packets,
		TCPSegments:      ds.TCP,
		SkippedPackets:   ds.Skipped,
		TruncatedPackets: ds.Truncated,
		Flows:            ts.Flows,
		EvictedFlows:     ts.Evicted,
		DroppedFlows:     ts.Dropped,
		TruncatedFlows:   ts.Truncated,
	}
}

// Pair groups flows by (client IP, server endpoint) and pairs each valid
// timed-out trace with the connection that follows it, mirroring how the
// active prober gathers environment A then environment B from one
// server. Flows with no valid trace and no valid predecessor become
// unpaired entries. Pairs are returned in deterministic capture order.
func Pair(flows []*FlowTrace) []FlowIdentification {
	groups := map[string][]*FlowTrace{}
	var order []string
	for _, f := range flows {
		gk := f.ClientIP + "|" + f.Server
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], f)
	}
	sort.Strings(order)

	var out []FlowIdentification
	for _, gk := range order {
		fs := groups[gk] // already in capture order (flows are sorted)
		for i := 0; i < len(fs); i++ {
			f := fs[i]
			if f.Trace != nil && f.Trace.Valid() && i+1 < len(fs) {
				out = append(out, FlowIdentification{A: f, B: fs[i+1]})
				i++
				continue
			}
			out = append(out, FlowIdentification{A: f})
		}
	}
	// Restore capture order across groups.
	sort.SliceStable(out, func(i, j int) bool { return flowLess(out[i].A, out[j].A) })
	return out
}

// Classify runs the pipeline over paired flows, filling each pair's ID in
// place: special-shape detection, feature extraction and the model call
// fan out on the engine worker pool, one pair at a time -- the same
// per-vector inference probed traces take, with the same per-pair
// results.
func Classify(pairs []FlowIdentification, model classify.Classifier, parallelism int) {
	_ = ClassifyCtx(context.Background(), pairs, model, parallelism, nil)
}

// ClassifyCtx is Classify with cancellation and a per-pair completion
// callback (both optional), for callers that tally results as they
// land -- the service's async pcap jobs. onResult runs serially on the
// calling goroutine, after every pair is classified, in pair order; a
// cancelled run returns ctx's error without invoking it.
func ClassifyCtx(ctx context.Context, pairs []FlowIdentification, model classify.Classifier, parallelism int, onResult func(i int)) error {
	return ClassifyAll(ctx, pairs, model, ClassifyOptions{Parallelism: parallelism, OnResult: onResult})
}

// ClassifyOptions tunes ClassifyAll.
type ClassifyOptions struct {
	// Parallelism bounds the preparation fan-out (0 = all CPUs).
	Parallelism int
	// Timings enables per-pair span recording into ID.Timings.
	Timings bool
	// Telemetry, when non-nil, aggregates every pair's spans into
	// per-stage histograms (implies Timings).
	Telemetry *telemetry.Pipeline
	// GatherSpan is the wall-clock cost of decode+reassembly for the
	// capture these pairs came from; span recording charges each pair an
	// equal share of it under StageGather.
	GatherSpan time.Duration
	// OnResult, when non-nil, runs serially in pair order after each
	// pair's ID is filled.
	OnResult func(i int)
}

// ClassifyAll is the full-control classification entry point: ClassifyCtx
// plus optional per-stage span recording (see ClassifyOptions).
func ClassifyAll(ctx context.Context, pairs []FlowIdentification, model classify.Classifier, opts ClassifyOptions) error {
	id := core.NewIdentifier(model)
	ress := make([]*probe.Result, len(pairs))
	for i := range pairs {
		ress[i] = pairResult(&pairs[i])
	}
	record := opts.Timings || opts.Telemetry != nil
	var outs []core.Identification
	var err error
	if record {
		// Telemetry aggregation is deferred below so the gather share is
		// included in the histograms.
		outs, err = id.IdentifyResultsObserved(ctx, ress, opts.Parallelism, nil)
	} else {
		outs, err = id.IdentifyResultsCtx(ctx, ress, opts.Parallelism)
	}
	if err != nil {
		return err
	}
	var gatherShare time.Duration
	if record && len(pairs) > 0 {
		gatherShare = opts.GatherSpan / time.Duration(len(pairs))
	}
	for i := range pairs {
		out := outs[i]
		out.Elapsed = pairs[i].A.End.Sub(pairs[i].A.Start)
		if pairs[i].B != nil {
			out.Elapsed += pairs[i].B.End.Sub(pairs[i].B.Start)
		}
		if record {
			out.Timings[telemetry.StageGather] = gatherShare
			if opts.Telemetry != nil {
				opts.Telemetry.ObserveTimings(&out.Timings)
			}
		}
		pairs[i].ID = out
		if opts.OnResult != nil {
			opts.OnResult(i)
		}
	}
	return nil
}

// pairResult maps one flow pair onto the probe result the identification
// pipeline consumes.
func pairResult(p *FlowIdentification) *probe.Result {
	res := &probe.Result{MSS: p.A.MSS}
	if p.A.Trace != nil {
		// Pairing fixes the environment roles the traces played.
		p.A.Trace.Env = "A"
		res.TraceA = p.A.Trace
		res.Wmax = p.A.Trace.WmaxThreshold
	}
	if p.B != nil && p.B.Trace != nil {
		p.B.Trace.Env = "B"
		res.TraceB = p.B.Trace
	}
	switch {
	case res.TraceA == nil:
		res.Reason = probe.ReasonInsufficientData
	case !res.TraceA.Valid():
		res.Valid = false
		if !res.TraceA.TimedOut {
			res.Reason = probe.ReasonNoTimeout
		} else {
			res.Reason = probe.ReasonNoResponse
		}
	default:
		res.Valid = true
	}
	return res
}

// IdentifyCapture is the passive pipeline end to end: decode r, track and
// reconstruct flows, pair them, and classify every pair with model. The
// capture is streamed; memory stays bounded regardless of its size.
func IdentifyCapture(r io.Reader, model classify.Classifier, opts IdentifyOptions) ([]FlowIdentification, CaptureStats, error) {
	record := opts.Timings || opts.Telemetry != nil
	var start time.Time
	if record {
		start = time.Now()
	}
	flows, stats, err := Reassemble(r, opts.Tracker)
	if err != nil {
		return nil, stats, fmt.Errorf("flow: decoding capture: %w", err)
	}
	var gather time.Duration
	if record {
		gather = time.Since(start)
	}
	pairs := Pair(flows)
	cerr := ClassifyAll(context.Background(), pairs, model, ClassifyOptions{
		Parallelism: opts.Parallelism,
		Timings:     opts.Timings,
		Telemetry:   opts.Telemetry,
		GatherSpan:  gather,
	})
	if cerr != nil {
		return pairs, stats, cerr
	}
	return pairs, stats, nil
}
