package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/census"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// The replay runs a workload's inputs in process, on one goroutine,
// through the library entry points the service itself calls: a
// core.Session for identify requests and census targets, engine
// block inference for batch jobs, and flow reassembly, pairing and
// flow.ClassifyAll for captures. A traced pass turns on the library's own
// stage timings and records a span around each call; each identification's
// gather, feature and classify times become child spans of its call.

// Span names of the library's pipeline stages: a whole identification's,
// the part of a block-inference job done when it is gathered, and a
// block's, where one batched call classifies every sample.
var (
	pipelineStages = map[telemetry.Stage]string{
		telemetry.StageGather:   "probe.gather",
		telemetry.StageFeature:  "feature.prepare",
		telemetry.StageClassify: "forest.classify",
	}
	gatherStages = map[telemetry.Stage]string{
		telemetry.StageGather:  "probe.gather",
		telemetry.StageFeature: "feature.prepare",
	}
	blockStages = map[telemetry.Stage]string{
		telemetry.StageFeature:  "feature.prepare",
		telemetry.StageClassify: "forest.classify_block",
	}
)

// stageOf maps a replay span to the pipeline stage its self time counts
// toward: gathering traces (probing, or decoding, reassembling and pairing
// a capture), feature preparation, classification, or the glue around them.
func stageOf(name string) string {
	switch name {
	case "probe.gather", "flow.reassemble", "flow.pair":
		return "gather"
	case "feature.prepare":
		return "feature"
	case "forest.classify", "forest.classify_block":
		return "classify"
	}
	return "self"
}

// wireOf renders an in-process identification with the fields the
// service's answers are compared on.
func wireOf(server string, id core.Identification) service.IdentifyResponse {
	r := service.IdentifyResponse{Server: server, Valid: id.Valid, Wmax: id.Wmax, MSS: id.MSS, Text: id.String()}
	switch {
	case !id.Valid:
		r.Reason = string(id.Reason)
	case id.Special != trace.SpecialNone:
		r.Special = id.Special.String()
	default:
		r.Label, r.Confidence = id.Label, id.Confidence
	}
	return r
}

// replayOutcome is one pass of a workload's replay.
type replayOutcome struct {
	ids   int
	spans []span
}

// replayer runs one pass of a workload's replay. traced turns on stage
// timings and span recording; every pass checks its answers.
type replayer func(traced bool) (replayOutcome, error)

// newSession returns a scalar pipeline session, recording stage timings
// when traced.
func newSession(id *core.Identifier, traced bool) *core.Session {
	s := id.NewSession()
	if traced {
		s.EnableTimings(nil)
	}
	return s
}

// identifyPaths identifies every path on one session, as the service's
// sync path and the census runner do, with a span per identification.
func identifyPaths(sess *core.Session, rec *recorder, parent int, paths []probePath) []core.Identification {
	outs := make([]core.Identification, len(paths))
	for i, p := range paths {
		p.server.ResetCache()
		rng := p.rng()
		s := rec.begin("core.identify", parent, i)
		outs[i] = sess.Identify(p.server, p.cond, probeConfig, rng)
		rec.end(s)
		rec.stages(s, &outs[i].Timings, pipelineStages)
	}
	return outs
}

// replayIdentify replays recorded fresh identify requests and checks the
// answers against the service's.
func replayIdentify(id *core.Identifier, paths []probePath, served []service.IdentifyResponse) replayer {
	return func(traced bool) (replayOutcome, error) {
		rec := &recorder{on: traced}
		outs := identifyPaths(newSession(id, traced), rec, -1, paths)
		for i := range outs {
			if err := sameIdentification(served[i], outs[i]); err != nil {
				return replayOutcome{}, fmt.Errorf("replay of identify request %d: %w", i, err)
			}
		}
		return replayOutcome{ids: len(outs), spans: rec.spans}, nil
	}
}

// replayBatch replays one batch job through engine block inference on one
// worker, as the service runs batch jobs, and checks the answers.
func replayBatch(id *core.Identifier, specs []service.JobSpec, served []service.IdentifyResponse) replayer {
	jobs := make([]engine.Job, len(specs))
	for i, s := range specs {
		server, cond := pathOf(s)
		jobs[i] = engine.Job{Server: server, Cond: cond, Seed: s.Seed}
	}
	return func(traced bool) (replayOutcome, error) {
		for _, j := range jobs {
			j.Server.ResetCache() // as fresh as the service's per-request servers
		}
		rec := &recorder{on: traced}
		root := rec.begin("engine.batch", -1, 0)
		results := engine.IdentifyBatch[core.Identification](id, jobs, engine.BatchConfig[core.Identification]{
			Parallelism: 1,
			Probe:       probeConfig,
			NewWorkerBlock: func() engine.BlockIdentifier[core.Identification] {
				bs := id.NewBlockSession()
				if !traced {
					return bs
				}
				bs.EnableTimings(nil)
				return &spannedBlock{bs: bs, rec: rec, root: root, gathered: map[int]int{}}
			},
		})
		rec.end(root)
		for i, r := range results {
			if err := sameIdentification(served[i], r.Out); err != nil {
				return replayOutcome{}, fmt.Errorf("replay of batch spec %d: %w", i, err)
			}
		}
		return replayOutcome{ids: len(results), spans: rec.spans}, nil
	}
}

// spannedBlock records spans around the engine's calls into a block
// session: one per gathered job, holding that job's gather and feature
// stages, and one per flush, holding the block's batched classification.
type spannedBlock struct {
	bs       *core.BlockSession
	rec      *recorder
	root     int
	gathered map[int]int // job tag -> its gather span, until flushed
}

func (b *spannedBlock) Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) {
	s := b.rec.begin("engine.gather", b.root, tag)
	b.bs.Gather(tag, server, cond, cfg, rng)
	b.rec.end(s)
	b.gathered[tag] = s
}

func (b *spannedBlock) Buffered() int { return b.bs.Buffered() }

func (b *spannedBlock) Flush(emit func(tag int, out core.Identification)) {
	f := b.rec.begin("engine.flush", b.root, 0)
	var block telemetry.StageTimings
	b.bs.Flush(func(tag int, out core.Identification) {
		block[telemetry.StageClassify] += out.Timings[telemetry.StageClassify]
		b.rec.stages(b.gathered[tag], &out.Timings, gatherStages)
		delete(b.gathered, tag)
		emit(tag, out)
	})
	b.rec.end(f)
	b.rec.stages(f, &block, blockStages)
}

// replayCensus identifies a census population target by target on one
// session and folds Table IV, as census.Run does on each of its workers.
func replayCensus(id *core.Identifier, pop []census.GroundTruth, paths []probePath) replayer {
	return func(traced bool) (replayOutcome, error) {
		rec := &recorder{on: traced}
		root := rec.begin("census.run", -1, 0)
		outs := identifyPaths(newSession(id, traced), rec, root, paths)
		a := rec.begin("census.aggregate", root, 0)
		outcomes := make([]census.Outcome, len(outs))
		for i := range outs {
			outcomes[i] = census.Outcome{Truth: pop[i], ID: outs[i]}
		}
		census.Aggregate(outcomes)
		rec.end(a)
		rec.end(root)
		return replayOutcome{ids: len(outs), spans: rec.spans}, nil
	}
}

// replayCapture replays captures the way POST /v1/pcap handles them --
// decode and reassembly, pairing, then flow.ClassifyAll -- and checks the
// answers against the offline pipeline's.
func replayCapture(model classify.Classifier, caps ...*capture) replayer {
	return func(traced bool) (replayOutcome, error) {
		rec := &recorder{on: traced}
		answers := make([][]service.IdentifyResponse, len(caps))
		ids := 0
		for ci, c := range caps {
			root := rec.begin("capture.ingest", -1, ci)
			r := rec.begin("flow.reassemble", root, ci)
			t0 := time.Now()
			flows, _, err := flow.Reassemble(bytes.NewReader(c.data), flow.Config{})
			gather := time.Since(t0)
			rec.end(r)
			if err != nil {
				return replayOutcome{}, fmt.Errorf("replaying capture %d: %w", ci, err)
			}
			p := rec.begin("flow.pair", root, ci)
			pairs := flow.Pair(flows)
			rec.end(p)
			cl := rec.begin("flow.classify_all", root, ci)
			err = flow.ClassifyAll(context.Background(), pairs, model, flow.ClassifyOptions{Parallelism: 1, Timings: traced, GatherSpan: gather})
			rec.end(cl)
			if err != nil {
				return replayOutcome{}, fmt.Errorf("replaying capture %d: %w", ci, err)
			}
			var block telemetry.StageTimings
			for k := range pairs {
				block[telemetry.StageFeature] += pairs[k].ID.Timings[telemetry.StageFeature]
				block[telemetry.StageClassify] += pairs[k].ID.Timings[telemetry.StageClassify]
				answers[ci] = append(answers[ci], wireOf(pairs[k].A.Server, pairs[k].ID))
			}
			rec.stages(cl, &block, blockStages)
			rec.end(root)
			ids += len(pairs)
		}
		for ci, c := range caps {
			if err := c.checkOffline(answers[ci]); err != nil {
				return replayOutcome{}, fmt.Errorf("replay of capture %d: %w", ci, err)
			}
		}
		return replayOutcome{ids: ids, spans: rec.spans}, nil
	}
}

// countTap counts the packets of the gatherings it observes.
type countTap struct{ segments, acks int64 }

func (t *countTap) Connect(time.Duration, probe.Environment, int, int) {}
func (t *countTap) Data(time.Duration, tcpsim.Segment)                 { t.segments++ }
func (t *countTap) Ack(time.Duration, int64)                           { t.acks++ }
func (t *countTap) Close(time.Duration)                                {}

// wirePackets counts the data segments and ACKs that probing the given
// paths puts on the wire, in an untimed pass.
func wirePackets(paths []probePath) (segments, acks int64) {
	var tap countTap
	for _, pp := range paths {
		pp.server.ResetCache()
		p := probe.New(probeConfig, pp.cond, pp.rng())
		p.SetTap(&tap)
		p.Gather(pp.server)
	}
	return tap.segments, tap.acks
}

// probePath is one probe gathering: a server under a condition, and a
// constructor for the gathering's generator, positioned where the probe
// starts drawing from it.
type probePath struct {
	server *websim.Server
	cond   netem.Condition
	rng    func() *rand.Rand
}

// seeded is the generator of a gathering that draws from a fresh seed, as
// the service does for every request.
func seeded(seed int64) func() *rand.Rand {
	return func() *rand.Rand { return xrand.New(seed) }
}
