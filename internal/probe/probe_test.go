package probe

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/trace"
	"repro/internal/websim"
)

func newLossless(seed int64) *Prober {
	return New(Config{}, netem.Lossless, rand.New(rand.NewSource(seed)))
}

func gatherA(t *testing.T, p *Prober, server *websim.Server, wmax, mss int) *trace.Trace {
	t.Helper()
	tr, err := p.GatherEnv(server, EnvA(), wmax, mss, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEnvironmentSchedules(t *testing.T) {
	a := EnvA()
	for r := 1; r <= 20; r++ {
		if a.PreRTT(r) != time.Second || a.PostRTT(r) != time.Second {
			t.Fatalf("env A RTT at round %d not 1s", r)
		}
	}
	b := EnvB()
	for r := 1; r <= 3; r++ {
		if b.PreRTT(r) != 800*time.Millisecond {
			t.Fatalf("env B pre round %d = %v, want 0.8s", r, b.PreRTT(r))
		}
	}
	if b.PreRTT(4) != time.Second {
		t.Fatal("env B pre round 4 must be 1s")
	}
	for r := 1; r <= 12; r++ {
		if b.PostRTT(r) != 800*time.Millisecond {
			t.Fatalf("env B post round %d = %v, want 0.8s", r, b.PostRTT(r))
		}
	}
	if b.PostRTT(13) != time.Second {
		t.Fatal("env B post round 13 must be 1s")
	}
}

func TestRenoTraceShape(t *testing.T) {
	tr := gatherA(t, newLossless(1), websim.Testbed("RENO"), 256, 536)
	if !tr.Valid() {
		t.Fatalf("invalid trace: %s", tr)
	}
	// Slow start doubles from the initial window to w(tmo) = 512.
	wantPre := []int{4, 8, 16, 32, 64, 128, 256, 512}
	if !reflect.DeepEqual(tr.Pre, wantPre) {
		t.Fatalf("pre = %v, want %v", tr.Pre, wantPre)
	}
	// Post-timeout: retransmission round (0), doubling to ssthresh 256,
	// then +1 per RTT.
	wantPost := []int{0, 2, 4, 8, 16, 32, 64, 128, 256, 256, 257, 258, 259, 260, 261, 262, 263, 264}
	if !reflect.DeepEqual(tr.Post, wantPost) {
		t.Fatalf("post = %v, want %v", tr.Post, wantPost)
	}
}

func TestGatherDeterministicUnderSeed(t *testing.T) {
	cond := netem.Condition{MeanRTT: 100 * time.Millisecond, RTTStdDev: 20 * time.Millisecond, LossRate: 0.05}
	run := func() *trace.Trace {
		p := New(Config{}, cond, rand.New(rand.NewSource(7)))
		tr, err := p.GatherEnv(websim.Testbed("CUBIC2"), EnvA(), 256, 536, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic gathering:\n%s\n%s", a, b)
	}
}

func TestAllAlgorithmsProduceValidEnvATraces(t *testing.T) {
	for _, name := range []string{"RENO", "BIC", "CTCP1", "CTCP2", "CUBIC1", "CUBIC2", "HSTCP", "HTCP", "ILLINOIS", "STCP", "VEGAS", "VENO", "WESTWOOD", "YEAH"} {
		tr := gatherA(t, newLossless(3), websim.Testbed(name), 256, 536)
		if !tr.Valid() {
			t.Errorf("%s: invalid env A trace: %s", name, tr)
		}
	}
}

func TestVegasEnvBNeverTimesOut(t *testing.T) {
	p := newLossless(4)
	tr, err := p.GatherEnv(websim.Testbed("VEGAS"), EnvB(), 64, 536, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TimedOut {
		t.Fatalf("VEGAS timed out in env B: %s", tr)
	}
	if tr.MaxWindow() > 64 {
		t.Fatalf("VEGAS window reached %d in env B, want <= 64", tr.MaxWindow())
	}
	// The delay-based retreat pins the window well below the slow start
	// peak for the remainder of the gathering.
	last := tr.Pre[len(tr.Pre)-1]
	if last >= 60 {
		t.Fatalf("VEGAS equilibrium window = %d, want pinned low", last)
	}
}

func TestBetaDiffersAcrossEnvironments(t *testing.T) {
	// ILLINOIS: beta 0.875 in env A (no queueing) but 0.5 in env B (the
	// pre-timeout RTT step) -- the paper's reason for two environments.
	p := newLossless(5)
	ta := gatherA(t, p, websim.Testbed("ILLINOIS"), 256, 536)
	tb, err := p.GatherEnv(websim.Testbed("ILLINOIS"), EnvB(), 256, 536, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	la := ta.PostNonzero()
	lb := tb.PostNonzero()
	// Env A boundary near 449 (0.875*512); env B near 256 (0.5*512).
	maxA, maxB := 0, 0
	for _, w := range la[:10] {
		if w > maxA {
			maxA = w
		}
	}
	for _, w := range lb[:10] {
		if w > maxB {
			maxB = w
		}
	}
	if maxA < 400 || maxB > 350 {
		t.Fatalf("env A/B slow start ceilings = %d/%d, want ~449 vs ~256", maxA, maxB)
	}
}

func TestLadderFallsBackOnShortPages(t *testing.T) {
	server := websim.Testbed("RENO")
	// Enough data for wmax=64 (needs ~1000 segs) but not 512.
	server.DefaultPageBytes = 800 * 536
	server.LongestPageBytes = 800 * 536
	server.MaxRequests = 1
	p := newLossless(6)
	res := p.Gather(server)
	if !res.Valid {
		t.Fatalf("expected a valid result at a smaller wmax, got %s", res.Reason)
	}
	if res.Wmax >= 512 {
		t.Fatalf("wmax = %d, want a smaller ladder value", res.Wmax)
	}
}

func TestGatherInsufficientData(t *testing.T) {
	server := websim.Testbed("RENO")
	server.DefaultPageBytes = 10 << 10 // 10 kB total
	server.LongestPageBytes = 10 << 10
	server.MaxRequests = 1
	res := newLossless(7).Gather(server)
	if res.Valid {
		t.Fatal("expected invalid result")
	}
	if res.Reason != ReasonInsufficientData {
		t.Fatalf("reason = %s, want %s", res.Reason, ReasonInsufficientData)
	}
}

func TestGatherNoTimeout(t *testing.T) {
	server := websim.Testbed("RENO")
	server.SendBufferSegments = 40 // window can never exceed 64
	res := newLossless(8).Gather(server)
	if res.Valid {
		t.Fatal("expected invalid result")
	}
	if res.Reason != ReasonNoTimeout {
		t.Fatalf("reason = %s, want %s", res.Reason, ReasonNoTimeout)
	}
}

func TestGatherNoResponseAfterTimeout(t *testing.T) {
	server := websim.Testbed("RENO")
	server.IgnoreRTO = true
	res := newLossless(9).Gather(server)
	if res.Valid {
		t.Fatal("expected invalid result")
	}
	if res.Reason != ReasonNoResponse {
		t.Fatalf("reason = %s, want %s", res.Reason, ReasonNoResponse)
	}
}

func TestMSSNegotiationLadder(t *testing.T) {
	server := websim.Testbed("RENO")
	server.MinMSS = 536
	res := newLossless(10).Gather(server)
	if !res.Valid {
		t.Fatalf("gather failed: %s", res.Reason)
	}
	if res.MSS != 536 {
		t.Fatalf("negotiated mss = %d, want 536", res.MSS)
	}
	reject := websim.Testbed("RENO")
	reject.MinMSS = 9000
	res = newLossless(11).Gather(reject)
	if res.Valid || res.Reason != ReasonMSSRejected {
		t.Fatalf("expected mss rejection, got %+v", res)
	}
}

func TestFRTOCounterMeasure(t *testing.T) {
	server := websim.Testbed("RENO")
	server.FRTO = true
	// With the dup-ACK counter-measure: normal slow start post-timeout.
	tr := gatherA(t, newLossless(12), server, 256, 536)
	if !tr.Valid() {
		t.Fatalf("invalid trace with counter-measure: %s", tr)
	}
	q := tr.PostNonzero()
	if q[0] != 2 || q[1] != 4 {
		t.Fatalf("expected post-timeout slow start, got %v", q)
	}

	// Without it: the spurious-RTO undo keeps the huge window; no
	// doubling restart is observable.
	p := New(Config{DisableDupAck: true}, netem.Lossless, rand.New(rand.NewSource(13)))
	tr2, err := p.GatherEnv(server, EnvA(), 256, 536, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	q2 := tr2.PostNonzero()
	if len(q2) > 0 && q2[0] <= 4 {
		t.Fatalf("undo expected without counter-measure, got slow start %v", q2)
	}
}

func TestSsthreshCachingNeedsWait(t *testing.T) {
	mk := func() *websim.Server {
		s := websim.Testbed("RENO")
		s.SsthreshCaching = true
		s.CacheTTL = 5 * time.Minute
		return s
	}
	// Default config waits 10 minutes: both environments gather cleanly.
	res := New(Config{}, netem.Lossless, rand.New(rand.NewSource(14))).Gather(mk())
	if !res.Valid {
		t.Fatalf("valid gather expected with the wait, got %s", res.Reason)
	}
	// With a 1s wait the env B connection inherits a tiny ssthresh and
	// crawls: it must not produce the same clean doubling trace.
	res2 := New(Config{InterEnvWait: time.Second}, netem.Lossless, rand.New(rand.NewSource(15))).Gather(mk())
	if res2.Valid && res2.Wmax == res.Wmax &&
		reflect.DeepEqual(res2.TraceB.Pre, res.TraceB.Pre) {
		t.Fatal("cached ssthresh had no observable effect")
	}
}

func TestProbeClockAdvances(t *testing.T) {
	p := newLossless(16)
	before := p.clock
	gatherA(t, p, websim.Testbed("RENO"), 64, 536)
	if p.clock <= before {
		t.Fatal("prober clock did not advance")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.Resolved()
	if cfg.Requests != 8 || cfg.MaxPreRounds != 20 || postRounds != trace.ValidPostRounds {
		t.Fatalf("defaults = %+v, post-timeout rounds %d", cfg, postRounds)
	}
	if cfg.InterEnvWait != 10*time.Minute {
		t.Fatalf("InterEnvWait = %v, want 10m", cfg.InterEnvWait)
	}
	if len(cfg.WmaxLadder) != 3 || cfg.WmaxLadder[0] != 256 {
		t.Fatalf("wmax ladder = %v", cfg.WmaxLadder)
	}
	if len(mssLadder) != 4 || mssLadder[0] != 100 {
		t.Fatalf("mss ladder = %v", mssLadder)
	}
	paper := Paper.Resolved()
	if paper.Requests != 12 || paper.MaxPreRounds != 40 || len(paper.WmaxLadder) != 4 || paper.WmaxLadder[0] != 512 {
		t.Fatalf("paper budget = %+v", paper)
	}
}
