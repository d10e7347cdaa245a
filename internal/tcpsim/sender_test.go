package tcpsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
)

const rtt = time.Second

// ackBurst delivers one in-order cumulative ACK per segment of the burst.
func ackBurst(s *Sender, burst []Segment, now time.Duration, round int64) {
	s.BeginRound(round)
	for _, seg := range burst {
		s.DeliverAck(now, seg.ID+1, rtt)
	}
}

func newRenoSender(total int64, opts Options) *Sender {
	opts.TotalSegments = total
	if opts.MSS == 0 {
		opts.MSS = 536
	}
	return New(cc.NewReno(), opts)
}

func TestInitialWindowRFC3390(t *testing.T) {
	tests := []struct {
		mss  int
		want float64
	}{
		{100, 4},  // min(4, max(2, 43.8)) = 4
		{536, 4},  // min(4, max(2, 8.17)) = 4
		{1460, 2}, // min(4, max(2, 3)) = 3 -> floor... 4380/1460 = 3
	}
	for _, tc := range tests {
		s := New(cc.NewReno(), Options{MSS: tc.mss, TotalSegments: 100})
		got := s.Conn().Cwnd
		if tc.mss == 1460 {
			if got != 3 {
				t.Fatalf("mss %d: IW = %v, want 3", tc.mss, got)
			}
			continue
		}
		if got != tc.want {
			t.Fatalf("mss %d: IW = %v, want %v", tc.mss, got, tc.want)
		}
	}
}

func TestSlowStartDoubling(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 2})
	now := time.Duration(0)
	var sizes []int
	for r := int64(1); r <= 6; r++ {
		burst := s.SendBurst(now)
		sizes = append(sizes, len(burst))
		ackBurst(s, burst, now+rtt, r)
		now += rtt
	}
	want := []int{2, 4, 8, 16, 32, 64}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("round %d burst = %d, want %d (all: %v)", i, sizes[i], want[i], sizes)
		}
	}
}

func TestWindowRespectsBuffersAndClamps(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 64, SendBufferSegments: 10})
	if got := len(s.SendBurst(0)); got != 10 {
		t.Fatalf("send buffer cap: burst = %d, want 10", got)
	}
	s2 := newRenoSender(1<<20, Options{InitialWindow: 64, CwndClamp: 7})
	if got := len(s2.SendBurst(0)); got != 7 {
		t.Fatalf("cwnd clamp: burst = %d, want 7", got)
	}
}

func TestDataExhaustion(t *testing.T) {
	s := newRenoSender(5, Options{InitialWindow: 10})
	burst := s.SendBurst(0)
	if len(burst) != 5 {
		t.Fatalf("burst = %d, want all 5 segments", len(burst))
	}
	if s.DataExhausted() {
		t.Fatal("not exhausted until acked")
	}
	ackBurst(s, burst, rtt, 1)
	if !s.DataExhausted() {
		t.Fatal("exhausted after final ack")
	}
	if got := s.SendBurst(rtt); got != nil {
		t.Fatalf("burst after exhaustion = %v", got)
	}
}

func TestRTOEstimation(t *testing.T) {
	s := newRenoSender(1<<20, Options{})
	if got := s.RTO(); got != 3*time.Second {
		t.Fatalf("initial RTO = %v, want 3s", got)
	}
	burst := s.SendBurst(0)
	ackBurst(s, burst, rtt, 1)
	// After a 1s sample: RTO = srtt + 4*rttvar = 1 + 4*0.5 = 3s; further
	// stable samples shrink it toward the 1s floor.
	for r := int64(2); r < 12; r++ {
		b := s.SendBurst(time.Duration(r) * rtt)
		ackBurst(s, b, time.Duration(r+1)*rtt, r)
	}
	got := s.RTO()
	if got < time.Second || got > 2*time.Second {
		t.Fatalf("converged RTO = %v, want [1s, 2s]", got)
	}
}

func TestTimeoutRecovery(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 2})
	now := time.Duration(0)
	var burst []Segment
	for r := int64(1); r <= 5; r++ {
		burst = s.SendBurst(now)
		ackBurst(s, burst, now+rtt, r)
		now += rtt
	}
	burst = s.SendBurst(now) // 64 segments, never acked
	if len(burst) != 64 {
		t.Fatalf("burst = %d, want 64", len(burst))
	}
	cwndBefore := s.Conn().Cwnd
	now += s.RTO()
	s.OnRTOExpired(now)
	if !s.TimedOut() {
		t.Fatal("TimedOut not set")
	}
	if s.Conn().Cwnd != 1 {
		t.Fatalf("cwnd after RTO = %v, want 1", s.Conn().Cwnd)
	}
	wantTh := cwndBefore / 2
	if math.Abs(s.Conn().Ssthresh-wantTh) > 1 {
		t.Fatalf("ssthresh = %v, want ~%v", s.Conn().Ssthresh, wantTh)
	}
	// The retransmission is the first unacked segment.
	re := s.SendBurst(now)
	if len(re) != 1 || !re[0].Retransmit || re[0].ID != burst[0].ID {
		t.Fatalf("retransmission = %+v, want segment %d", re, burst[0].ID)
	}
	// A cumulative ACK for everything received re-opens new data.
	s.BeginRound(7)
	s.DeliverAck(now+rtt, burst[len(burst)-1].ID+1, rtt)
	next := s.SendBurst(now + rtt)
	if len(next) == 0 || next[0].Retransmit {
		t.Fatalf("expected new data after recovery, got %+v", next)
	}
}

func TestRTOBackoffDoubles(t *testing.T) {
	s := newRenoSender(1<<20, Options{})
	burst := s.SendBurst(0)
	ackBurst(s, burst, rtt, 1)
	base := s.RTO()
	s.OnRTOExpired(base)
	if got := s.RTO(); got != 2*base {
		t.Fatalf("backed-off RTO = %v, want %v", got, 2*base)
	}
	s.OnRTOExpired(3 * base)
	if got := s.RTO(); got != 4*base {
		t.Fatalf("double backoff = %v, want %v", got, 4*base)
	}
}

func TestKarnRuleSkipsRetransmitSamples(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 4})
	burst := s.SendBurst(0)
	s.OnRTOExpired(3 * time.Second)
	re := s.SendBurst(3 * time.Second)
	if len(re) == 0 || !re[0].Retransmit {
		t.Fatal("expected retransmission")
	}
	// ACK of a retransmitted segment must not seed the RTT estimator.
	s.BeginRound(2)
	s.DeliverAck(4*time.Second, re[0].ID+1, 123*time.Millisecond)
	if s.srtt != 0 {
		t.Fatalf("srtt = %v, want unset (Karn)", s.srtt)
	}
	_ = burst
}

func TestFRTOSpuriousUndoWithoutDupAck(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 2, FRTO: true})
	now := time.Duration(0)
	var burst []Segment
	for r := int64(1); r <= 4; r++ {
		burst = s.SendBurst(now)
		ackBurst(s, burst, now+rtt, r)
		now += rtt
	}
	burst = s.SendBurst(now)
	cwndBefore := s.Conn().Cwnd
	thBefore := s.Conn().Ssthresh
	s.OnRTOExpired(now + s.RTO())
	// First ACK advances snd_una: F-RTO declares the timeout spurious
	// and restores the congestion state.
	s.BeginRound(6)
	s.DeliverAck(now+s.RTO()+rtt, burst[len(burst)-1].ID+1, rtt)
	if s.Conn().Cwnd != cwndBefore || s.Conn().Ssthresh != thBefore {
		t.Fatalf("no undo: cwnd=%v ssthresh=%v, want %v/%v",
			s.Conn().Cwnd, s.Conn().Ssthresh, cwndBefore, thBefore)
	}
}

func TestFRTODefusedByDupAck(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 2, FRTO: true})
	now := time.Duration(0)
	var burst []Segment
	var lastAck int64
	for r := int64(1); r <= 4; r++ {
		burst = s.SendBurst(now)
		ackBurst(s, burst, now+rtt, r)
		lastAck = burst[len(burst)-1].ID + 1
		now += rtt
	}
	burst = s.SendBurst(now)
	s.OnRTOExpired(now + s.RTO())
	// CAAI's counter-measure: a duplicate ACK first.
	s.DeliverAck(now+s.RTO(), lastAck, 0)
	// Now the advancing ACK must NOT undo: conventional recovery.
	s.BeginRound(6)
	s.DeliverAck(now+s.RTO()+rtt, burst[len(burst)-1].ID+1, rtt)
	if s.Conn().Cwnd > 3 {
		t.Fatalf("cwnd = %v, want slow start from ~1", s.Conn().Cwnd)
	}
	if !s.Conn().InSlowStart() {
		t.Fatal("must be in slow start after conventional recovery")
	}
}

func TestIgnoreRTO(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 4, IgnoreRTO: true})
	s.SendBurst(0)
	s.OnRTOExpired(5 * time.Second)
	if s.TimedOut() {
		t.Fatal("IgnoreRTO server must not react to the RTO")
	}
	if got := s.SendBurst(5 * time.Second); got != nil {
		t.Fatalf("silent server sent %v", got)
	}
}

func TestPostTimeoutClamp(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 8, PostTimeoutClamp: 1})
	if got := len(s.SendBurst(0)); got != 8 {
		t.Fatalf("pre-timeout burst = %d, want 8 (clamp must not apply)", got)
	}
	s.OnRTOExpired(3 * time.Second)
	if got := len(s.SendBurst(3 * time.Second)); got != 1 {
		t.Fatalf("post-timeout burst = %d, want 1", got)
	}
	// Even after ACKs grow cwnd, the clamp pins the window.
	s.BeginRound(2)
	s.DeliverAck(4*time.Second, 8, rtt)
	if got := len(s.SendBurst(4 * time.Second)); got != 1 {
		t.Fatalf("clamped burst = %d, want 1", got)
	}
}

func TestInitialSsthreshOption(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialSsthresh: 10, InitialWindow: 2})
	if s.Conn().Ssthresh != 10 {
		t.Fatalf("ssthresh = %v, want 10", s.Conn().Ssthresh)
	}
	if s.CurrentSsthresh() != 10 {
		t.Fatal("CurrentSsthresh mismatch")
	}
}

func TestDeliverAckIgnoresStaleAcks(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 4})
	burst := s.SendBurst(0)
	ackBurst(s, burst, rtt, 1)
	cwnd := s.Conn().Cwnd
	s.DeliverAck(rtt, burst[0].ID, rtt) // stale duplicate
	if s.Conn().Cwnd != cwnd {
		t.Fatal("duplicate ACK changed the window")
	}
}

func TestPipeAccounting(t *testing.T) {
	s := newRenoSender(1<<20, Options{InitialWindow: 4})
	b1 := s.SendBurst(0)
	if len(b1) != 4 {
		t.Fatalf("burst = %d", len(b1))
	}
	// Window full: no more sends until ACKs arrive.
	if got := s.SendBurst(0); got != nil {
		t.Fatalf("overcommitted burst: %v", got)
	}
	// ACK two segments: two slots open (plus slow start growth).
	s.BeginRound(1)
	s.DeliverAck(rtt, 2, rtt)
	got := len(s.SendBurst(rtt))
	if got < 2 {
		t.Fatalf("freed burst = %d, want >= 2", got)
	}
}
