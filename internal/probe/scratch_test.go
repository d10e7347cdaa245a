package probe_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/tcpsim"
	"repro/internal/xrand"
)

// largestRoundTap records the largest burst of data segments one
// environment's server sends at one instant: a round of the gathering.
type largestRoundTap struct {
	env     string
	largest map[string]int
	at      time.Duration
	n       int
}

func (t *largestRoundTap) Connect(_ time.Duration, env probe.Environment, _, _ int) {
	t.env, t.n = env.Name, 0
}

func (t *largestRoundTap) Data(now time.Duration, _ tcpsim.Segment) {
	if now != t.at || t.n == 0 {
		t.at, t.n = now, 0
	}
	t.n++
	t.largest[t.env] = max(t.largest[t.env], t.n)
}

func (*largestRoundTap) Ack(time.Duration, int64) {}
func (*largestRoundTap) Close(time.Duration)      {}

// gathered is the part of a Result a regression compares.
type gathered struct {
	Valid                bool
	Reason               probe.InvalidReason
	Wmax, MSS            int
	PageBytes            int64
	PreA, PostA          []int
	PreB, PostB          []int
	TimedOutA, TimedOutB bool
}

// TestRunawayWindowScratchReleased probes target 254 of the census
// campaign (1,000 servers, seed 100007) as the census runner does: a BIC
// server with F-RTO, MSS 100 and a 32 MB page on a path with 0.14% loss.
// At wmax 256 the path drops environment B's last pre-timeout ACK (507),
// so the "duplicate" ACK the probe sends after the emulated timeout -- its
// highest cumulative ACK, 507 -- is new to the server, whose snd_una is
// 506: it advances snd_una, and F-RTO undoes the timeout with an infinite
// ssthresh. The post-timeout window then doubles past a million segments
// per round. The gathering must still produce the same Result, and the
// prober must not keep that round's scratch afterwards.
func TestRunawayWindowScratchReleased(t *testing.T) {
	pop, seed := census.Campaign(1000, 100007)
	const target = 254
	rng := xrand.New(seed + target*6700417)
	cond := netem.MeasuredDatabase().Sample(rng)
	srv := pop[target].Server
	srv.ResetCache()
	p := probe.New(probe.Config{}, cond, rng)
	tap := &largestRoundTap{largest: map[string]int{}}
	p.SetTap(tap)
	res := p.Gather(srv)

	if tap.largest["B"] <= 1_000_000 {
		t.Fatalf("largest environment B round = %d segments, want > 10^6: the census population no longer holds the runaway F-RTO target this test pins",
			tap.largest["B"])
	}
	windows := []int{4, 8, 16, 32, 64, 128, 256}
	want := gathered{
		Valid: true, Wmax: 128, MSS: 100, PageBytes: 32639611,
		PreA:      windows,
		PostA:     []int{0, 2, 4, 8, 16, 32, 64, 128, 208, 224, 239, 255, 270, 286, 301, 317, 332, 349},
		PreB:      windows,
		PostB:     []int{0, 2, 4, 8, 16, 32, 64, 128, 208, 224, 239, 254, 270, 285, 301, 316, 332, 349},
		TimedOutA: true, TimedOutB: true,
	}
	got := gathered{Valid: res.Valid, Reason: res.Reason, Wmax: res.Wmax, MSS: res.MSS, PageBytes: res.PageBytes}
	if res.Valid {
		got.PreA, got.PostA, got.TimedOutA = res.TraceA.Pre, res.TraceA.Post, res.TraceA.TimedOut
		got.PreB, got.PostB, got.TimedOutB = res.TraceB.Pre, res.TraceB.Post, res.TraceB.TimedOut
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result = %+v\nwant     %+v", got, want)
	}
	if c := probe.RetainedScratch(p); c > probe.MaxRetainedScratch {
		t.Errorf("prober retains %d segments of scratch, want at most %d", c, probe.MaxRetainedScratch)
	}
}
