package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cc"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/pcap"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/tcpsim"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// layerBenchTime is how long each single-layer benchmark runs.
const layerBenchTime = 100 * time.Millisecond

// setBenchTime sets how long testing.Benchmark runs a benchmark: it sizes
// b.N to the -test.benchtime flag, which testing.Init registers.
func setBenchTime(d time.Duration) error {
	testing.Init()
	return flag.Set("test.benchtime", d.String())
}

// measured runs one layer benchmark through testing.Benchmark.
func measured(name string, fn func(*testing.B)) (testing.BenchmarkResult, error) {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return r, fmt.Errorf("layer benchmark %s failed", name)
	}
	return r, nil
}

// nsPerOp is a result's time per operation with all its digits
// (BenchmarkResult.NsPerOp rounds to whole nanoseconds).
func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// calibratedPaths are the probe inputs of the layer benchmarks: every
// algorithm once under a condition from the measured database.
func calibratedPaths(in *inputs) []probePath {
	paths := make([]probePath, len(in.algs))
	for i, alg := range in.algs {
		paths[i] = probePath{
			server: websim.Testbed(alg),
			cond:   in.db.Sample(in.rng(streamCalib, uint64(i))),
			rng:    seeded(in.seed<<8 + int64(i) + 1),
		}
	}
	return paths
}

// calibrate measures the per-call cost of each layer: the repository's
// own suite cases (internal/bench) where it has one, and benchmarks on
// inputs drawn from the run seed for the layers it has none for. These are
// the numbers a single-layer change should move even when the workload's
// end-to-end metrics cannot resolve it.
func calibrate(in *inputs, id *core.Identifier) (map[string]float64, error) {
	model := id.Classifier()
	f, ok := model.(*forest.Forest)
	if !ok {
		return nil, fmt.Errorf("the benchmark's model is a %T, not a random forest", model)
	}
	if err := setBenchTime(layerBenchTime); err != nil {
		return nil, err
	}
	paths := calibratedPaths(in)
	segs := make([]int64, len(paths))
	for i := range paths {
		segs[i], _ = wirePackets(paths[i : i+1])
	}
	c, err := in.makeCapture(id, 1<<20, int(in.seed%int64(len(in.algs))), 2)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.IdentifyRequest{JobSpec: in.hotSpec(0)})
	if err != nil {
		return nil, err
	}

	// metric is one per-layer metric: the benchmark it comes from and how
	// it is read from the result (a benchmark reporting two metrics runs
	// once for each).
	type metric struct {
		name  string
		bench func(*testing.B)
		read  func(testing.BenchmarkResult) float64
	}
	usPerOp := func(r testing.BenchmarkResult) float64 { return nsPerOp(r) / 1e3 }
	extra := func(unit string, scale float64) func(testing.BenchmarkResult) float64 {
		return func(r testing.BenchmarkResult) float64 { return r.Extra[unit] * scale }
	}
	metrics := []metric{
		{"netem.drop_ns", netemDrops(paths, in.seed), nsPerOp},
		{"netem.jitter_ns", netemJitter(paths, in.seed), nsPerOp},
		{"tcpsim.burst_ns_per_segment", senderRounds(in.algs), extra("burst-ns/segment", 1)},
		{"tcpsim.deliver_ack_ns", senderRounds(in.algs), extra("ack-ns/ack", 1)},
		{"websim.open_ns", websimOpens(paths), nsPerOp},
		{"probe.ns_per_segment", probeGathers(paths, segs), extra("ns/segment", 1)},
		{"feature.extract_us", bench.FeatureExtraction(), usPerOp},
		{"forest.classify_us", bench.ForestClassify(model), usPerOp},
		{"forest.batch_us_per_sample", bench.ForestClassifyBatch(f, 64), extra("ns/sample", 1e-3)},
		{"pcap.decode_ns_per_packet", pcapDecode(c.data), extra("ns/packet", 1)},
		{"pcap.sniff_ns_per_packet", pcapSniff(c.data), extra("ns/packet", 1)},
		{"flow.observe_ns_per_packet", flowObserve(c.data), extra("ns/packet", 1)},
		{"service.hit_us", bench.ServiceIdentify(model, false), usPerOp},
		{"service.hit_allocs", bench.ServiceIdentify(model, false), func(r testing.BenchmarkResult) float64 { return float64(r.MemAllocs) / float64(r.N) }},
		{"service.decode_us", requestDecode(body), usPerOp},
		{"service.encode_us", responseEncode(body, model), usPerOp},
	}
	for _, name := range in.algs {
		metrics = append(metrics, metric{"cc.on_ack_ns." + name, ccAcks(name), nsPerOp})
	}
	out := map[string]float64{}
	for _, m := range metrics {
		r, err := measured(m.name, m.bench)
		if err != nil {
			return nil, err
		}
		out[m.name] = m.read(r)
	}
	return out, nil
}

// netemDrops draws per-packet losses over the paths' conditions.
func netemDrops(paths []probePath, seed int64) func(*testing.B) {
	return func(b *testing.B) {
		rng := xrand.New(seed)
		nets := make([]netem.Path, len(paths))
		for i, p := range paths {
			nets[i].Reset(p.cond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nets[i%len(nets)].Drop(rng)
		}
	}
}

// netemJitter draws per-round RTT jitter over the paths' conditions.
func netemJitter(paths []probePath, seed int64) func(*testing.B) {
	return func(b *testing.B) {
		rng := xrand.New(seed)
		for i := 0; i < b.N; i++ {
			paths[i%len(paths)].cond.Jitter(rng, 100*time.Millisecond)
		}
	}
}

// ccAcks delivers ACKs to one algorithm through a mock clock: slow start,
// a timeout at a 512-packet window, then congestion avoidance -- the
// phases a probe walks through. One op is one ACK.
func ccAcks(name string) func(*testing.B) {
	return func(b *testing.B) {
		alg, err := cc.New(name)
		if err != nil {
			b.Fatal(err)
		}
		const rtt = 100 * time.Millisecond
		conn := cc.NewConn(536, 2)
		alg.Reset(conn)
		b.ResetTimer()
		for acks := 0; acks < b.N; {
			conn.Round++
			w := int(conn.Cwnd)
			step := rtt / time.Duration(max(w, 1))
			for k := 0; k < w && acks < b.N; k++ {
				conn.Now += step
				conn.ObserveRTT(rtt)
				alg.OnAck(conn, 1, rtt)
				acks++
			}
			if conn.Cwnd > 512 {
				conn.Ssthresh = alg.Ssthresh(conn)
				conn.Cwnd = 1
				conn.LossEvents++
				alg.OnTimeout(conn)
			}
		}
	}
}

// senderRounds drives one tcpsim sender per algorithm, in turn, round by
// round with a mock clock: a burst, then one ACK per segment an RTT later,
// and a timeout once the window passes 512 packets. One op is one round;
// the burst and the ACK processing (which calls the algorithm's OnAck)
// are reported per segment.
func senderRounds(algs []string) func(*testing.B) {
	return func(b *testing.B) {
		const rtt = 100 * time.Millisecond
		type sender struct {
			s     *tcpsim.Sender
			now   time.Duration
			round int64
		}
		senders := make([]sender, len(algs))
		for i, name := range algs {
			alg, err := cc.New(name)
			if err != nil {
				b.Fatal(err)
			}
			senders[i].s = tcpsim.New(alg, tcpsim.Options{MSS: 536, TotalSegments: 1 << 40})
		}
		var buf []tcpsim.Segment
		var burst, ack time.Duration
		var segs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sd := &senders[i%len(senders)]
			t0 := time.Now()
			buf = sd.s.AppendBurst(buf[:0], sd.now)
			t1 := time.Now()
			sd.now += rtt
			sd.round++
			sd.s.BeginRound(sd.round)
			for _, seg := range buf {
				sd.s.DeliverAck(sd.now, seg.ID+1, rtt)
			}
			ack += time.Since(t1)
			burst += t1.Sub(t0)
			segs += int64(len(buf))
			if sd.s.Conn().Cwnd > 512 {
				sd.now += sd.s.RTO()
				sd.s.OnRTOExpired(sd.now)
			}
		}
		b.ReportMetric(float64(burst.Nanoseconds())/float64(max(segs, 1)), "burst-ns/segment")
		b.ReportMetric(float64(ack.Nanoseconds())/float64(max(segs, 1)), "ack-ns/ack")
	}
}

// websimOpens opens and closes a recycled simulated connection.
func websimOpens(paths []probePath) func(*testing.B) {
	return func(b *testing.B) {
		var dialer websim.Dialer
		for i := 0; i < b.N; i++ {
			srv := paths[i%len(paths)].server
			snd, err := dialer.Open(srv, 536, 12, 64<<20, 0)
			if err != nil {
				b.Fatalf("opening a simulated connection: %v", err)
			}
			srv.Close(snd, 0)
		}
	}
}

// probeGathers runs whole gatherings on a reused prober and reports the
// time per data segment sent (segs[i] is path i's segment count).
func probeGathers(paths []probePath, segs []int64) func(*testing.B) {
	return func(b *testing.B) {
		pr := probe.New(probeConfig, paths[0].cond, paths[0].rng())
		pr.Reuse()
		var total int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := paths[i%len(paths)]
			p.server.ResetCache()
			pr.Rearm(probeConfig, p.cond, p.rng())
			pr.Gather(p.server)
			total += segs[i%len(paths)]
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(total, 1)), "ns/segment")
	}
}

// capturePasses reads the whole capture once per op with each, which
// returns how many packets it consumed and the error that ended the
// pass, and reports the time per packet.
func capturePasses(data []byte, each func(rd *pcap.Reader) (int64, error)) func(*testing.B) {
	return func(b *testing.B) {
		var pkts int64
		for i := 0; i < b.N; i++ {
			rd, err := pcap.NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			k, err := each(rd)
			if err != io.EOF {
				b.Fatalf("decoding the capture: %v", err)
			}
			pkts += k
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(pkts, 1)), "ns/packet")
	}
}

// pcapDecode decodes every packet of a capture.
func pcapDecode(data []byte) func(*testing.B) {
	return capturePasses(data, func(rd *pcap.Reader) (int64, error) {
		var pkt pcap.Packet
		for k := int64(0); ; k++ {
			if err := rd.Next(&pkt); err != nil {
				return k, err
			}
		}
	})
}

// pcapSniff reads raw records and sniffs their 4-tuples, as the streaming
// framer does.
func pcapSniff(data []byte) func(*testing.B) {
	return capturePasses(data, func(rd *pcap.Reader) (int64, error) {
		var rec pcap.RawRecord
		for k := int64(0); ; k++ {
			if err := rd.NextRaw(&rec); err != nil {
				return k, err
			}
			pcap.TupleSniff(rec.LinkType, rec.Data)
		}
	})
}

// flowObserve tracks a decoded capture's packets into flows.
func flowObserve(data []byte) func(*testing.B) {
	return func(b *testing.B) {
		rd, err := pcap.NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		var pkts []pcap.Packet
		var pkt pcap.Packet
		for rd.Next(&pkt) == nil {
			pkts = append(pkts, pkt)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := flow.NewTracker(flow.Config{})
			for k := range pkts {
				tr.Observe(&pkts[k])
			}
			tr.Finish()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(b.N*len(pkts), 1)), "ns/packet")
	}
}

// requestDecode decodes an identify request body the way the handler does.
func requestDecode(body []byte) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var req service.IdentifyRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// responseEncode encodes the service's answer to an identify request the
// way the handler does.
func responseEncode(body []byte, model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		reg := service.NewRegistry()
		reg.Add("bench", model)
		svc := service.New(reg, service.Config{})
		defer svc.Close()
		rw := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/identify", bytes.NewReader(body)))
		var resp service.IdentifyResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
			b.Fatalf("decoding the in-process answer (status %d): %v", rw.Code, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			if err := enc.Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	}
}
