package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netem"
	"repro/internal/pcapgen"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// Input streams: each kind of input draws from its own seeded stream, so
// adding requests of one kind never shifts another kind's inputs.
const (
	streamMiss uint64 = iota + 1
	streamHot
	streamCapture
	streamCalib
	streamCensus
)

// probeConfig is the probe configuration caai-serve runs with: the paper's
// defaults.
var probeConfig = probe.Config{}

// wireSample bounds the gatherings the wire-packet counts are taken over.
const wireSample = 200

// Seeds of generated specs: the specs that fill the cache before timing
// use 1..4096 (the first hotSpecs of them are the hot specs), fresh specs
// start at missSeedBase, so the two never share a cache entry.
const (
	hotSpecs     = 256
	missSeedBase = 1 << 20
)

// inputs derives every workload input from the run seed.
type inputs struct {
	seed int64
	db   *netem.Database
	algs []string
}

func newInputs(seed int64) *inputs {
	return &inputs{seed: seed, db: netem.MeasuredDatabase(), algs: cc.CAAINames()}
}

// draw returns the deterministic 64-bit value for item i of a stream
// (a SplitMix64 finalizer over the seed, stream and index).
func (in *inputs) draw(stream, i uint64) uint64 {
	z := uint64(in.seed)*0x9E3779B97F4A7C15 + stream<<40 + i
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// rng returns the deterministic generator for item i of a stream.
func (in *inputs) rng(stream, i uint64) *rand.Rand {
	return xrand.New(int64(in.draw(stream, i)))
}

// freshSpec is the i-th never-repeated identification: the 14 algorithms
// round-robin under a condition drawn from the measured database.
func (in *inputs) freshSpec(i int) service.JobSpec {
	return service.JobSpec{
		Server:    service.ServerSpec{Algorithm: in.algs[i%len(in.algs)]},
		Condition: wireCondition(in.db.Sample(in.rng(streamMiss, uint64(i)))),
		Seed:      missSeedBase + int64(i),
	}
}

// hotSpec is the j-th spec the identify workload fills the server's cache
// with before timing; the first hotSpecs are the ones it repeats.
func (in *inputs) hotSpec(j int) service.JobSpec {
	return service.JobSpec{
		Server:    service.ServerSpec{Algorithm: in.algs[j%len(in.algs)]},
		Condition: wireCondition(in.db.Sample(in.rng(streamHot, uint64(j)))),
		Seed:      int64(j + 1),
	}
}

// censusPath is census target i's gathering in the replay: the target's
// server under a condition drawn from the measured database, probed with
// the generator the condition was drawn from, as census.Run probes.
func (in *inputs) censusPath(server *websim.Server, i int) probePath {
	cond := in.db.Sample(in.rng(streamCensus, uint64(i)))
	return probePath{server: server, cond: cond, rng: func() *rand.Rand {
		rng := in.rng(streamCensus, uint64(i))
		in.db.Sample(rng)
		return rng
	}}
}

// wireCondition renders a condition in the API's millisecond units.
func wireCondition(c netem.Condition) service.ConditionSpec {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return service.ConditionSpec{MeanRTTMs: ms(c.MeanRTT), RTTStdDevMs: ms(c.RTTStdDev), LossRate: c.LossRate}
}

// pathOf converts a wire spec back into the server and condition the
// service probes, with the service's own unit conversion, so an in-process
// identification of the spec repeats the service's probe exactly.
func pathOf(spec service.JobSpec) (*websim.Server, netem.Condition) {
	c := spec.Condition
	mean := c.MeanRTTMs
	if mean == 0 {
		mean = 50
	}
	return websim.Testbed(spec.Server.Algorithm), netem.Condition{
		MeanRTT:   time.Duration(mean * float64(time.Millisecond)),
		RTTStdDev: time.Duration(c.RTTStdDevMs * float64(time.Millisecond)),
		LossRate:  c.LossRate,
	}
}

// capture is one synthetic packet capture, its specs, and the answers of
// the offline passive pipeline (flow.IdentifyCapture) in pair order, which
// are checked against the direct probe path when the capture is made.
type capture struct {
	data      []byte
	specs     []pcapgen.ServerSpec
	offline   []service.IdentifyResponse
	stats     flow.CaptureStats
	algorithm map[string]string // server endpoint -> algorithm
}

// makeCapture synthesizes a capture of n servers whose algorithms run
// round-robin from algorithm index first, drawing from the capture stream
// at offset base. Paths take their RTT and jitter from the measured
// database but no loss: the capture round trip reproduces the direct path
// exactly only when no packet is lost.
func (in *inputs) makeCapture(id *core.Identifier, base uint64, first, n int) (*capture, error) {
	specs := make([]pcapgen.ServerSpec, n)
	for k := range specs {
		cond := in.db.Sample(in.rng(streamCapture, base+uint64(k)))
		cond.LossRate = 0
		specs[k] = pcapgen.ServerSpec{
			Algorithm: in.algs[(first+k)%len(in.algs)],
			Cond:      cond,
			Seed:      in.seed<<16 + int64(base) + int64(k) + 1,
		}
	}
	var buf bytes.Buffer
	direct, err := pcapgen.Generate(&buf, specs, pcapgen.Options{})
	if err != nil {
		return nil, err
	}
	pairs, stats, err := flow.IdentifyCapture(bytes.NewReader(buf.Bytes()), id.Classifier(), flow.IdentifyOptions{})
	if err != nil {
		return nil, err
	}
	c := &capture{data: buf.Bytes(), specs: specs, stats: stats, algorithm: map[string]string{}}
	for _, p := range pairs {
		c.offline = append(c.offline, wireOf(p.A.Server, p.ID))
	}
	servers := byServer(c.offline)
	for k, r := range direct {
		// pcapgen numbers servers 10.0.<k>>8>.<k&0xff + 1>, port 80.
		ep := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(k >> 8), byte(k&0xff) + 1}), 80).String()
		c.algorithm[ep] = specs[k].Algorithm
		if err := roundTrip(servers[ep], wireOf(ep, id.IdentifyResult(r))); err != nil {
			return nil, fmt.Errorf("capture round trip of server %s (%s under %v): %w", ep, specs[k].Algorithm, specs[k].Cond, err)
		}
	}
	return c, nil
}

// byServer groups answers by server endpoint.
func byServer(answers []service.IdentifyResponse) map[string][]service.IdentifyResponse {
	out := map[string][]service.IdentifyResponse{}
	for _, a := range answers {
		out[a.Server] = append(out[a.Server], a)
	}
	return out
}

// roundTrip checks one server's passive answers against its direct probe:
// the valid flow pair (if the probe found one) identifies exactly as the
// probe did, and every other flow is a failed ladder step.
func roundTrip(answers []service.IdentifyResponse, direct service.IdentifyResponse) error {
	valid := 0
	for _, a := range answers {
		if !a.Valid {
			continue
		}
		valid++
		if err := sameAnswer(a, direct); err != nil {
			return err
		}
	}
	if len(answers) == 0 || (direct.Valid && valid != 1) || (!direct.Valid && valid != 0) {
		return fmt.Errorf("%d answers with %d valid, direct probe %q", len(answers), valid, direct.Text)
	}
	return nil
}

// checkOffline compares a job's answers with the offline pipeline's.
func (c *capture) checkOffline(got []service.IdentifyResponse) error {
	if len(got) != len(c.offline) {
		return fmt.Errorf("%d answers, offline pipeline %d", len(got), len(c.offline))
	}
	for i := range got {
		if err := sameAnswer(got[i], c.offline[i]); err != nil {
			return fmt.Errorf("answer %d: %w", i, err)
		}
	}
	return nil
}

// checkStream compares a streamed capture's outcome with the offline
// pipeline's: the same packets, segments, flows and classifiable flows
// reconstructed, and answers for exactly the capture's servers. It returns
// how many servers' valid offline answers the stream did not repeat: the
// stream pairs each server's flows in the order its shards close them,
// which can swap a probe's environment A and B connections, so those
// answers are reported rather than failed.
func (c *capture) checkStream(got []service.IdentifyResponse, stats flow.CaptureStats) (int, error) {
	w := c.stats
	if stats.Packets != w.Packets || stats.TCPSegments != w.TCPSegments || stats.Flows != w.Flows || stats.Classifiable != w.Classifiable {
		return 0, fmt.Errorf("stream reconstructed %+v, offline pipeline %+v", stats, w)
	}
	want, have := byServer(c.offline), byServer(got)
	if len(have) != len(want) {
		return 0, fmt.Errorf("answers cover %d servers, capture holds %d", len(have), len(want))
	}
	differ := 0
	for server, answers := range want {
		gotAnswers, ok := have[server]
		if !ok {
			return 0, fmt.Errorf("no answer for server %s", server)
		}
		for _, a := range answers {
			if a.Valid && findAnswer(gotAnswers, a) != nil {
				differ++
				break
			}
		}
	}
	return differ, nil
}

// findAnswer reports an error unless answers hold want.
func findAnswer(answers []service.IdentifyResponse, want service.IdentifyResponse) error {
	for _, a := range answers {
		if sameAnswer(a, want) == nil {
			return nil
		}
	}
	return fmt.Errorf("no answer equals %q", want.Text)
}

// sameIdentification reports whether a wire answer carries exactly the
// in-process identification.
func sameIdentification(r service.IdentifyResponse, id core.Identification) error {
	return sameAnswer(r, wireOf(r.Server, id))
}

// sameAnswer reports whether two answers carry the same identification
// for the same server.
func sameAnswer(got, want service.IdentifyResponse) error {
	if got.Server != want.Server || got.Valid != want.Valid || got.Label != want.Label || got.Special != want.Special ||
		got.Confidence != want.Confidence || got.Reason != want.Reason || got.Wmax != want.Wmax || got.MSS != want.MSS {
		return fmt.Errorf("%s answered %q, expected %q", got.Server, got.Text, want.Text)
	}
	return nil
}
