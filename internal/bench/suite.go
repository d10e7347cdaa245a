package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/flow"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/pcap"
	"repro/internal/pcapgen"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// Suite builds the hot-path benchmark cases against ctx's (lazily trained
// and cached) model. These are the same measurements `go test -bench`
// exposes through bench_test.go; caai-bench runs them standalone and
// persists the numbers.
func Suite(ctx *experiments.Context) ([]Case, error) {
	model, err := ctx.Model()
	if err != nil {
		return nil, err
	}
	ds, err := ctx.TrainingSet()
	if err != nil {
		return nil, err
	}
	cases := []Case{
		{Name: "forest/train", Bench: ForestTrain(ds, ctx.Seed+1)},
		{Name: "probe/gather_env", Bench: GatherSession()},
		{Name: "feature/extract", Bench: FeatureExtraction()},
		{Name: "core/training_set", Bench: TrainingSet(ctx.DB, ctx.TrainingConditions, ctx.Seed)},
		{Name: "core/identify_mix", Bench: IdentifyMix(model)},
		{Name: "engine/identify_batch", Bench: IdentifyBatch(model, 64)},
		{Name: "pcap/decode", Bench: PcapDecode()},
		{Name: "pcap/ingest", Bench: PcapIngest(model)},
		{Name: "pcap/stream_ingest", Bench: PcapStreamIngest()},
		{Name: "pcap/stream_probe_capture", Bench: PcapStreamProbeCapture(model)},
		{Name: "service/identify_hit", Bench: ServiceIdentify(model, false)},
		{Name: "service/identify_miss", Bench: ServiceIdentify(model, true)},
		{Name: "service/batch_blocks", Bench: ServiceBatchBlocks(model, 64)},
		{Name: "telemetry/overhead", Bench: TelemetryOverhead(model)},
		{Name: "telemetry/trace_overhead", Bench: TraceOverhead(model)},
	}
	if f, ok := model.(*forest.Forest); ok {
		cases = append([]Case{
			{Name: "forest/votes_into", Bench: ForestVotesInto(f)},
			{Name: "forest/classify", Bench: ForestClassify(model)},
			{Name: "forest/classify_batch", Bench: ForestClassifyBatch(f, 64)},
		}, cases...)
	} else {
		cases = append([]Case{{Name: "forest/classify", Bench: ForestClassify(model)}}, cases...)
	}
	return cases, nil
}

// ForestTrain measures growing the paper's forest (K = 80 trees, F = 4
// features per split) on ds with the given seed: the forest half of a
// cold start.
func ForestTrain(ds *forest.Dataset, seed int64) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forest.Train(ds, forest.Config{Trees: 80, Subspace: 4, Seed: seed})
		}
	}
}

// TrainingSet measures gathering the training set on the emulated
// testbed at the given conditions per (algorithm, wmax) pair: the other
// half of a cold start.
func TrainingSet(db *netem.Database, conditions int, seed int64) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.GenerateTrainingSet(db, core.TrainingConfig{ConditionsPerPair: conditions, Seed: seed}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchVector is a representative in-distribution feature vector.
var benchVector = []float64{0.7, 18, 110, 0.7, 11, 83, 1, 9}

// ForestVotesInto measures the arena vote walk with a reused buffer (the
// zero-allocation classification core).
func ForestVotesInto(f *forest.Forest) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		votes := f.VotesInto(nil, benchVector)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			votes = f.VotesInto(votes, benchVector)
		}
	}
}

// ForestClassify measures the classify.Classifier entry point (pooled vote
// buffers for the forest backend).
func ForestClassify(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		model.Classify(benchVector) // warm any pools
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model.Classify(benchVector)
		}
	}
}

// ForestClassifyBatch measures a block of m spread-out vectors classified
// one by one with ClassifyBuf into caller-owned votes, the walk
// Forest.Classify runs for every job a Session identifies. One op
// classifies the whole block, so the ns/sample metric is directly
// comparable with forest/classify.
func ForestClassifyBatch(f *forest.Forest, m int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(9))
		vecs := make([][]float64, m)
		for i := range vecs {
			v := make([]float64, len(benchVector))
			for d, x := range benchVector {
				v[d] = x * (0.5 + rng.Float64())
			}
			vecs[i] = v
		}
		votes := make([]int, f.NumClasses())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range vecs {
				_, _, votes = f.ClassifyBuf(v, votes)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/sample")
		b.ReportMetric(float64(m), "block")
	}
}

// GatherSession measures one full environment-A gathering session against
// a lossless CUBIC2 testbed server with a reused prober.
func GatherSession() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		p := probe.New(probe.Config{}, netem.Lossless, rng)
		server := websim.Testbed("CUBIC2")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.GatherEnv(server, probe.EnvA(), 256, 536, 64<<20); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// FeatureExtraction measures CAAI step 2 with reused scratch on gathered
// traces.
func FeatureExtraction() func(*testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		p := probe.New(probe.Config{}, netem.Lossless, rng)
		ta, err := p.GatherEnv(websim.Testbed("CUBIC2"), probe.EnvA(), 256, 536, 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		tb, err := p.GatherEnv(websim.Testbed("CUBIC2"), probe.EnvB(), 256, 536, 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		var sc feature.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feature.ExtractWith(&sc, ta, tb)
		}
	}
}

// IdentifyMix measures the scalar cache-miss pipeline on the traffic the
// service sees: one op is one Session.Identify with a fresh seed, the 14
// algorithms round-robin, each under its own measured-database condition
// (lossless, lossy and high-RTT paths alike), through one reused
// core.Session. Where service/identify_miss probes CUBIC2 at 0.5% loss
// only, this weights every algorithm's per-ACK cost, HSTCP's included.
// The reseeded RNG and prebuilt servers keep it at 0 allocs/op.
func IdentifyMix(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		names := cc.CAAINames()
		servers := make([]*websim.Server, len(names))
		for i, name := range names {
			servers[i] = websim.Testbed(name)
		}
		db := netem.MeasuredDatabase()
		sess := core.NewIdentifier(model).NewSession()
		rng := xrand.New(0)
		identify := func(i int, seed int64) bool {
			xrand.Reseed(rng, seed)
			cond := db.Sample(rng)
			return sess.Identify(servers[i%len(servers)], cond, probe.Config{}, rng).Valid
		}
		// Grow the session's buffers on a few rounds of every algorithm
		// under seeds the timed loop never uses.
		for i := 0; i < 4*len(servers); i++ {
			identify(i, -1-int64(i))
		}
		b.ResetTimer()
		valid := 0
		for i := 0; i < b.N; i++ {
			if identify(i, int64(i)*1_000_003+1) {
				valid++
			}
		}
		b.ReportMetric(float64(valid)/float64(b.N)*100, "valid-%")
	}
}

// IdentifyBatch measures batched identification of jobs servers through a
// pretrained model on the worker pool, one Session per worker
// (core.Identifier.IdentifyEach; probing dominates, allocs/op is the
// budgeted number). valid-% is the valid share of every job of every
// batch, so it does not depend on b.N.
func IdentifyBatch(model classify.Classifier, jobs int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		id := core.NewIdentifier(model)
		rng := rand.New(rand.NewSource(77))
		db := netem.MeasuredDatabase()
		servers := make([]*websim.Server, jobs)
		conds := make([]netem.Condition, jobs)
		names := cc.CAAINames()
		for i := range servers {
			servers[i], conds[i] = websim.Testbed(names[i%len(names)]), db.Sample(rng)
		}
		b.ResetTimer()
		var valid int
		for i := 0; i < b.N; i++ {
			seed := int64(i)
			results := id.IdentifyEach(jobs, 0, probe.Config{}, func(k int) (*websim.Server, netem.Condition, int64) {
				return servers[k], conds[k], seed + int64(k+1)*15485863
			})
			for _, r := range results {
				if r.Valid {
					valid++
				}
			}
		}
		b.ReportMetric(float64(valid)/float64(jobs*b.N)*100, "valid-%")
		b.ReportMetric(float64(jobs), "jobs/op")
	}
}

// ServiceBatchBlocks measures the async batch queue end to end: POST
// /v1/batch with jobs all-miss specs, then poll GET /v1/jobs/{id} until
// the job is done. Polls back off from 1 ms, doubling, so their count --
// and the allocations they add to the op -- grows with the log of the
// job's run time rather than linearly with it. One op is one whole batch
// job; seeds vary per iteration so every spec is a fresh probe through
// the engine's worker sessions, never a cache replay.
func ServiceBatchBlocks(model classify.Classifier, jobs int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		reg := service.NewRegistry()
		reg.Add("bench", model)
		svc := service.New(reg, service.Config{})
		b.Cleanup(svc.Close)
		h := svc.Handler()
		names := cc.CAAINames()

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var body strings.Builder
			body.WriteString(`{"jobs":[`)
			for k := 0; k < jobs; k++ {
				if k > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, `{"server":{"algorithm":%q},"condition":{"loss_rate":0.005},"seed":%d}`,
					names[k%len(names)], int64(i*jobs+k+1))
			}
			body.WriteString(`]}`)
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body.String()))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				b.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
			}
			var acc service.BatchAccepted
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				b.Fatal(err)
			}
			for wait := time.Millisecond; ; wait *= 2 {
				req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+acc.JobID, nil)
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var st service.JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					b.Fatal(err)
				}
				if st.State == service.StateDone {
					if st.CacheHits != 0 {
						b.Fatalf("batch saw %d cache hits, want all misses", st.CacheHits)
					}
					break
				}
				if st.State == service.StateFailed || st.State == service.StateCancelled {
					b.Fatalf("job ended %s: %s", st.State, st.Error)
				}
				time.Sleep(wait)
			}
		}
		b.ReportMetric(float64(jobs), "jobs/op")
	}
}

// PcapDecode measures the decoder alone -- record framing plus the
// Ethernet/IP/TCP parse -- over a pcapgen probe capture of two servers.
// One op is one Reader.Next: the reader is built once over a source that
// replays the capture's records without end, so the op allocates
// nothing and ns/op is the decode cost per packet, reported again as
// ns/packet.
func PcapDecode() func(*testing.B) {
	return func(b *testing.B) {
		var buf bytes.Buffer
		if _, err := pcapgen.Generate(&buf, []pcapgen.ServerSpec{
			{Algorithm: "CUBIC2", Seed: 51},
			{Algorithm: "RENO", Seed: 52},
		}, pcapgen.Options{}); err != nil {
			b.Fatal(err)
		}
		rd, err := pcap.NewReader(&recordLoop{data: buf.Bytes()})
		if err != nil {
			b.Fatal(err)
		}
		var pkt pcap.Packet
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rd.Next(&pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
	}
}

// recordLoop reads a classic capture, then its records again and again:
// after the last record it resumes at the first, past the 24-byte file
// header.
type recordLoop struct {
	data []byte
	off  int
}

func (l *recordLoop) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 24
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// PcapIngest measures the passive pipeline end to end -- pcap decode, TCP
// flow reassembly, congestion-window reconstruction, pairing, and
// classification -- over a pregenerated two-server synthetic capture.
// b.SetBytes makes `go test -bench` report MB/s of capture throughput;
// the suite records ns/op and allocs/op against the budget.
func PcapIngest(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		var buf bytes.Buffer
		if _, err := pcapgen.Generate(&buf, []pcapgen.ServerSpec{
			{Algorithm: "CUBIC2", Seed: 51},
			{Algorithm: "RENO", Seed: 52},
		}, pcapgen.Options{}); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		var pairs int
		for i := 0; i < b.N; i++ {
			out, _, err := flow.IdentifyCapture(bytes.NewReader(data), model, flow.IdentifyOptions{})
			if err != nil {
				b.Fatal(err)
			}
			pairs = len(out)
		}
		if pairs != 2 {
			b.Fatalf("capture yielded %d identifications, want 2", pairs)
		}
		b.ReportMetric(float64(len(data)), "capture-bytes/op")
	}
}

// PcapStreamIngest measures the streaming pipeline -- flow.Stream's
// decode, online flow tracking and epoch expiry over a reader, as the
// service runs it on a request body -- over a live-monitoring workload: dozens of concurrent bulk transfers with MTU-sized segments
// interleaved packet by packet, the shape a `tcpdump -w -` feed has
// (unlike pcap/ingest's small-MSS probe capture). Data segments
// round-robin over the flows, so only handshakes and the ACK after a
// data segment follow a packet of their own flow (21% of packets): the
// tracker's last-flow fast path mostly misses. b.SetBytes reports MB/s
// of capture throughput.
func PcapStreamIngest() func(*testing.B) {
	return func(b *testing.B) {
		const (
			nflows = 64
			rounds = 96
			mss    = 1448
		)
		var buf bytes.Buffer
		w, err := pcap.NewWriter(&buf, pcap.LinkEthernet, 0)
		if err != nil {
			b.Fatal(err)
		}
		ts := time.Unix(1700000000, 0)
		var frame []byte
		write := func(spec *pcap.FrameSpec) {
			frame = pcap.AppendFrame(frame[:0], spec)
			if err := w.WritePacket(ts, len(frame), frame); err != nil {
				b.Fatal(err)
			}
			ts = ts.Add(37 * time.Microsecond)
		}
		type conn struct {
			cli, srv netip.AddrPort
			seq      uint32
		}
		conns := make([]conn, nflows)
		for i := range conns {
			conns[i] = conn{
				cli: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), uint16(40000+i)),
				srv: netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 8)}), 443),
				seq: 1,
			}
		}
		for i := range conns {
			c := &conns[i]
			write(&pcap.FrameSpec{Src: c.cli, Dst: c.srv, Flags: pcap.FlagSYN, Window: 65535,
				Opt: pcap.TCPOptions{MSS: mss, HasMSS: true}})
			write(&pcap.FrameSpec{Src: c.srv, Dst: c.cli, Ack: 1, Flags: pcap.FlagSYN | pcap.FlagACK,
				Window: 65535, Opt: pcap.TCPOptions{MSS: mss, HasMSS: true}})
			write(&pcap.FrameSpec{Src: c.cli, Dst: c.srv, Seq: 1, Ack: 1, Flags: pcap.FlagACK, Window: 65535})
		}
		for r := 0; r < rounds; r++ {
			for i := range conns {
				c := &conns[i]
				write(&pcap.FrameSpec{Src: c.srv, Dst: c.cli, Seq: c.seq, Ack: 1,
					Flags: pcap.FlagACK, Window: 65535, PayloadLen: mss})
				c.seq += mss
				if r%4 == 3 {
					write(&pcap.FrameSpec{Src: c.cli, Dst: c.srv, Seq: 1, Ack: c.seq,
						Flags: pcap.FlagACK, Window: 65535})
				}
			}
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		var flows int
		for i := 0; i < b.N; i++ {
			flows = 0
			_, err := flow.Stream(context.Background(), bytes.NewReader(data), flow.StreamConfig{
				Tracker: flow.Config{MaxFlows: 4 * nflows, MaxEmitted: -1},
			}, func(*flow.FlowTrace) { flows++ })
			if err != nil {
				b.Fatal(err)
			}
		}
		if flows != nflows {
			b.Fatalf("stream emitted %d flows, want %d", flows, nflows)
		}
		b.ReportMetric(float64(len(data)), "capture-bytes/op")
	}
}

// PcapStreamProbeCapture measures streaming identification end to end
// -- decode, online tracking, pairing and classification through
// flow.IdentifyStream over a reader, the call the service makes on a
// request body -- over a pcapgen probe capture of eight servers
// gathered one connection at a time: the traffic the service's capture
// stream carries, where nearly every packet belongs to the same flow as
// the packet before it. b.SetBytes reports MB/s of capture.
func PcapStreamProbeCapture(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		algs := []string{"RENO", "CUBIC2", "BIC", "HTCP", "VEGAS", "STCP", "HSTCP", "ILLINOIS"}
		specs := make([]pcapgen.ServerSpec, len(algs))
		for i, a := range algs {
			specs[i] = pcapgen.ServerSpec{Algorithm: a, Seed: int64(61 + i)}
		}
		var buf bytes.Buffer
		if _, err := pcapgen.Generate(&buf, specs, pcapgen.Options{}); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		var results int
		for i := 0; i < b.N; i++ {
			results = 0
			_, err := flow.IdentifyStream(context.Background(), bytes.NewReader(data), model, flow.StreamConfig{},
				func(flow.FlowIdentification) { results++ })
			if err != nil {
				b.Fatal(err)
			}
		}
		if results != len(specs) {
			b.Fatalf("stream yielded %d identifications, want %d", results, len(specs))
		}
		b.ReportMetric(float64(len(data)), "capture-bytes/op")
	}
}

// ServiceIdentify measures the HTTP service path end to end (JSON decode,
// registry lookup, cache, singleflight, pipeline, JSON encode). miss=false
// serves one request repeatedly from the LRU result cache; miss=true
// forces a fresh probe every iteration by varying the seed.
func ServiceIdentify(model classify.Classifier, miss bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		reg := service.NewRegistry()
		reg.Add("bench", model)
		svc := service.New(reg, service.Config{})
		b.Cleanup(svc.Close)
		h := svc.Handler()

		do := func(seed int64) service.IdentifyResponse {
			body := fmt.Sprintf(`{"server":{"algorithm":"CUBIC2"},"condition":{"loss_rate":0.005},"seed":%d}`, seed)
			req := httptest.NewRequest(http.MethodPost, "/v1/identify", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			var resp service.IdentifyResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				b.Fatal(err)
			}
			return resp
		}

		if miss {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := do(int64(i + 1)); resp.Cached {
					b.Fatal("unexpected cache hit")
				}
			}
			return
		}
		do(1) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := do(1); !resp.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	}
}

// TelemetryOverhead pins the observability contract on the scalar
// identify hot path: the timed op is a span-recording core.Session
// identify feeding a live telemetry.Pipeline (the caai-serve
// configuration); after the timed loop the same iteration count runs on
// an untimed session and the relative slowdown lands in "overhead-%"
// (clamped at zero -- scheduler noise can make the instrumented loop
// come out faster). The budget holds this at 0 allocs/op and <= 5%.
// Both sessions consume identical RNG streams, so the two loops do
// byte-for-byte the same probing work.
func TelemetryOverhead(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		id := core.NewIdentifier(model)
		server := websim.Testbed("CUBIC2")
		var tel telemetry.Pipeline
		timed := id.NewSession()
		timed.EnableTimings(&tel)
		plain := id.NewSession()
		rngTimed := rand.New(rand.NewSource(11))
		rngPlain := rand.New(rand.NewSource(11))
		timed.Identify(server, netem.Lossless, probe.Config{}, rngTimed)
		plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timed.Identify(server, netem.Lossless, probe.Config{}, rngTimed)
		}
		b.StopTimer()
		enabled := b.Elapsed()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		}
		baseline := time.Since(start)
		overhead := 0.0
		if baseline > 0 {
			overhead = (float64(enabled)/float64(baseline) - 1) * 100
		}
		if overhead < 0 {
			overhead = 0
		}
		b.ReportMetric(overhead, "overhead-%")
	}
}

// TraceOverhead pins the flight-recorder contract the same way
// TelemetryOverhead pins the pipeline's: the timed op is a
// span-recording identify that ALSO writes stage spans and events into a
// live telemetry.Flight's rings (the caai-serve configuration with
// tracing on, SampleN 1 so tail sampling retains every trace); the
// baseline is the identical session without a bound trace. Both consume
// identical RNG streams, so the loops do byte-for-byte the same probing
// work and "overhead-%" isolates the ring writes. The budget holds this
// at 0 allocs/op and <= 5%.
func TraceOverhead(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		id := core.NewIdentifier(model)
		server := websim.Testbed("CUBIC2")
		var tel telemetry.Pipeline
		flight := telemetry.NewFlight(telemetry.FlightConfig{SampleN: 1})
		traced := id.NewSession()
		traced.EnableTimings(&tel)
		traced.BindTrace(flight, flight.Mint(), 0)
		plain := id.NewSession()
		plain.EnableTimings(&tel)
		rngTraced := rand.New(rand.NewSource(11))
		rngPlain := rand.New(rand.NewSource(11))
		traced.Identify(server, netem.Lossless, probe.Config{}, rngTraced)
		plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			traced.Identify(server, netem.Lossless, probe.Config{}, rngTraced)
		}
		b.StopTimer()
		enabled := b.Elapsed()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		}
		baseline := time.Since(start)
		overhead := 0.0
		if baseline > 0 {
			overhead = (float64(enabled)/float64(baseline) - 1) * 100
		}
		if overhead < 0 {
			overhead = 0
		}
		b.ReportMetric(overhead, "overhead-%")
	}
}

// Accuracy runs the reduced-scale Table III cross-validation and returns
// the overall accuracy, the quality metric recorded alongside the perf
// numbers so a speedup that degrades classification is caught in the same
// trajectory file.
func Accuracy(ctx *experiments.Context) (float64, error) {
	res, err := experiments.TableIII(ctx)
	if err != nil {
		return 0, err
	}
	return res.Accuracy, nil
}
