package flow

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// IdentifyOptions tunes IdentifyCapture.
type IdentifyOptions struct {
	// Tracker bounds flow reassembly (zero value: defaults).
	Tracker Config
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

// Reassemble decodes a capture and reconstructs its flows: the passive
// engine's decode -> track loop over r with idle expiry off, the
// finished flows sorted into capture order (by first activity). It is
// the building block of IdentifyCapture for callers that want raw
// traces. On a malformed capture it returns the flows reassembled so far
// along with the error.
func Reassemble(r io.Reader, cfg Config) ([]*FlowTrace, CaptureStats, error) {
	var flows []*FlowTrace
	stats, err := capture(context.Background(), r, StreamConfig{Tracker: cfg}, false,
		func(f *FlowTrace) { flows = append(flows, f) })
	sortFlows(flows)
	return flows, stats, err
}

// Pair runs the passive pipeline's one pairing rule -- the pairer
// IdentifyStream runs -- over flows in capture order (as Reassemble
// returns them), with no bound on the flows waiting for a companion:
// each valid timed-out trace pairs with the next connection of its
// (client IP, server) group, mirroring how the active prober gathers
// environment A then environment B from one server. Flows with no valid
// trace and no valid predecessor become unpaired entries. Pairs come
// back in capture order of their A flows, ties in input order.
func Pair(flows []*FlowTrace) []FlowIdentification {
	byA := make([]FlowIdentification, len(flows)) // indexed by A's input index
	p := pairer{pending: map[string]pendingFlow{}, onPair: func(fi FlowIdentification, a int) { byA[a] = fi }}
	for _, f := range flows {
		p.add(f)
	}
	p.flush()
	out := byA[:0]
	for _, fi := range byA {
		if fi.A != nil {
			out = append(out, fi)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return flowLess(out[i].A, out[j].A) })
	return out
}

// ClassifyOptions tunes ClassifyAll.
type ClassifyOptions struct {
	// Deprecated: Parallelism is ignored; ClassifyAll classifies on the
	// caller's goroutine.
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

// ClassifyAll classifies paired flows in place, in pair order on the
// caller's goroutine, through the per-pair classification IdentifyStream
// runs inline. A cancelled run returns ctx's error without invoking
// OnResult. model is taken as trained at the default probe budget unless
// it is a *core.Identifier, which carries its own (see
// core.NewIdentifier): a pair whose wmax lies above the budget's top
// rung answers UNSURE.
func ClassifyAll(ctx context.Context, pairs []FlowIdentification, model classify.Classifier, opts ClassifyOptions) error {
	id := core.NewIdentifier(model)
	record := opts.Timings || opts.Telemetry != nil
	var sc feature.Scratch
	for i := range pairs {
		if err := ctx.Err(); err != nil {
			return err
		}
		var clock telemetry.SpanClock
		if record {
			clock.Start()
		}
		classifyPair(id, &pairs[i], &sc, &clock)
	}
	var gatherShare time.Duration
	if record && len(pairs) > 0 {
		gatherShare = opts.GatherSpan / time.Duration(len(pairs))
	}
	for i := range pairs {
		if record {
			// Telemetry aggregates here, after the gather share is in.
			pairs[i].ID.Timings[telemetry.StageGather] = gatherShare
			if opts.Telemetry != nil {
				opts.Telemetry.ObserveTimings(&pairs[i].ID.Timings)
			}
		}
		if opts.OnResult != nil {
			opts.OnResult(i)
		}
	}
	return nil
}

// classifyPair is the passive pipeline's one per-pair classification:
// it maps the pair onto the probe result it stands for, classifies that
// with sc as feature scratch while clock laps the feature and classify
// spans (an unarmed clock records nothing), and sets Elapsed to the
// pair's captured duration.
func classifyPair(id *core.Identifier, fi *FlowIdentification, sc *feature.Scratch, clock *telemetry.SpanClock) {
	fi.ID = id.IdentifyResultWith(sc, clock, pairResult(fi))
	fi.ID.Elapsed = fi.A.End.Sub(fi.A.Start)
	if fi.B != nil {
		fi.ID.Elapsed += fi.B.End.Sub(fi.B.Start)
	}
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

// IdentifyCapture is the passive pipeline end to end for a recorded
// capture: Reassemble (the engine with idle expiry off), Pair (the
// stream's pairer, unbounded), and ClassifyAll (the stream's per-pair
// classification, pair by pair). The capture is decoded incrementally;
// memory stays bounded regardless of its size.
func IdentifyCapture(r io.Reader, model classify.Classifier, opts IdentifyOptions) ([]FlowIdentification, CaptureStats, error) {
	start := time.Now()
	flows, stats, err := Reassemble(r, opts.Tracker)
	if err != nil {
		return nil, stats, fmt.Errorf("flow: decoding capture: %w", err)
	}
	gather := time.Since(start)
	pairs := Pair(flows)
	err = ClassifyAll(context.Background(), pairs, model, ClassifyOptions{
		Timings:    opts.Timings,
		Telemetry:  opts.Telemetry,
		GatherSpan: gather,
	})
	return pairs, stats, err
}
