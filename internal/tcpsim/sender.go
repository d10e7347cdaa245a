// Package tcpsim implements the TCP sender of a simulated Web server: the
// sequence space, slow start / congestion avoidance driven by a pluggable
// congestion avoidance algorithm (internal/cc), retransmission timeouts
// with RFC 6298 estimation and exponential backoff, F-RTO (RFC 5682)
// spurious-timeout detection, and the send-buffer / window clamps that
// produce the paper's special trace shapes.
//
// The sender is driven round-by-round by internal/probe: each emulated RTT
// it emits one burst, then processes the ACKs the prober chose to deliver.
package tcpsim

import (
	"math"
	"time"

	"repro/internal/cc"
)

// Options configures a Sender.
type Options struct {
	// MSS is the negotiated maximum segment size in bytes.
	MSS int
	// InitialWindow is the initial congestion window in packets; 0 means
	// the RFC 3390 default min(4, max(2, 4380/MSS)).
	InitialWindow float64
	// TotalSegments is how much application data is available to send.
	TotalSegments int64
	// SendBufferSegments caps the number of in-flight segments (a small
	// send buffer produces the paper's "Bounded Window" traces); 0 means
	// unlimited.
	SendBufferSegments int64
	// CwndClamp caps the congestion window in packets (the kernel's
	// snd_cwnd_clamp; produces "Nonincreasing Window" traces); 0 means
	// no clamp.
	CwndClamp float64
	// PostTimeoutClamp caps the congestion window after the first
	// timeout ("Remaining at 1 Packet" traces use 1); 0 means no clamp.
	PostTimeoutClamp float64
	// FRTO enables forward RTO-recovery (RFC 5682).
	FRTO bool
	// IgnoreRTO models servers that never respond to the emulated
	// timeout (one of the paper's invalid-trace causes).
	IgnoreRTO bool
	// InitialSsthresh overrides the infinite initial slow start
	// threshold (slow start threshold caching); 0 means infinite.
	InitialSsthresh float64
	// Recovery selects the loss recovery component (default NewReno).
	Recovery RecoveryScheme
	// BurstinessControl enables Linux-style cwnd moderation when fast
	// recovery ends (see Section IV-B of the paper).
	BurstinessControl bool
	// SlowStart selects the slow start component (default standard).
	SlowStart SlowStartScheme
}

// Segment is one transmitted data segment, identified by its index in the
// segment sequence space (bytes = ID*MSS).
type Segment struct {
	// ID is the segment sequence number in segments.
	ID int64
	// Retransmit marks segments sent again after a timeout.
	Retransmit bool
}

// Sender is a simulated TCP sender. Not safe for concurrent use.
type Sender struct {
	alg  cc.Algorithm
	conn *cc.Conn
	opts Options

	sndUna int64 // lowest unacknowledged segment
	sndNxt int64 // next never-sent segment
	resend int64 // next segment to (re)transmit
	pipe   int64 // estimated segments in flight

	srtt    time.Duration
	rttvar  time.Duration
	backoff int // RTO exponential backoff exponent

	retransHigh  int64 // highest segment sent as a retransmission
	frtoPending  bool
	prevCwnd     float64 // cwnd before the last RTO (for F-RTO undo)
	prevSsthresh float64

	// Fast retransmit / fast recovery state.
	dupAcks        int
	inRecovery     bool
	recover        int64 // snd_nxt when recovery was entered
	retransmitNext int64 // pending single retransmission, -1 when none

	// Hybrid slow start state (see slowstart.go).
	hystart hystartState

	timedOut bool
}

// New creates a sender running alg with the given options. The algorithm
// instance must be dedicated to this sender.
func New(alg cc.Algorithm, opts Options) *Sender {
	s := new(Sender)
	s.Renew(alg, opts)
	return s
}

// Renew re-initializes s in place for a fresh connection running alg,
// recycling the Sender and its Conn allocations: the post-Renew state is
// exactly what New returns. The algorithm instance must be dedicated to
// this sender for the connection's lifetime (Reset rewinds it here, as New
// does). This is the zero-allocation path for probers that open thousands
// of sequential connections.
func (s *Sender) Renew(alg cc.Algorithm, opts Options) {
	if opts.MSS <= 0 {
		opts.MSS = 1460
	}
	iw := opts.InitialWindow
	if iw <= 0 {
		iw = math.Min(4, math.Max(2, 4380/float64(opts.MSS)))
		iw = math.Floor(iw)
	}
	conn := s.conn
	if conn == nil {
		conn = cc.NewConn(opts.MSS, iw)
	} else {
		conn.Reinit(opts.MSS, iw)
	}
	if opts.InitialSsthresh > 0 {
		conn.Ssthresh = opts.InitialSsthresh
	}
	*s = Sender{alg: alg, conn: conn, opts: opts, retransHigh: -1, retransmitNext: -1}
	alg.Reset(conn)
}

// Conn exposes the congestion state (read-mostly; the prober reads Cwnd for
// diagnostics and tests assert on it).
func (s *Sender) Conn() *cc.Conn { return s.conn }

// Algorithm returns the congestion avoidance component in use.
func (s *Sender) Algorithm() cc.Algorithm { return s.alg }

// TimedOut reports whether the sender has experienced at least one RTO.
func (s *Sender) TimedOut() bool { return s.timedOut }

// CurrentSsthresh returns the live slow start threshold (cached by servers
// that implement ssthresh caching).
func (s *Sender) CurrentSsthresh() float64 { return s.conn.Ssthresh }

// DataExhausted reports whether all application data has been sent and
// acknowledged.
func (s *Sender) DataExhausted() bool {
	return s.sndUna >= s.opts.TotalSegments
}

// window returns the current sending window in segments.
func (s *Sender) window() int64 {
	w := s.conn.Cwnd
	if s.opts.CwndClamp > 0 && w > s.opts.CwndClamp {
		w = s.opts.CwndClamp
	}
	if s.timedOut && s.opts.PostTimeoutClamp > 0 && w > s.opts.PostTimeoutClamp {
		w = s.opts.PostTimeoutClamp
	}
	win := int64(w)
	if s.opts.SendBufferSegments > 0 && win > s.opts.SendBufferSegments {
		win = s.opts.SendBufferSegments
	}
	return win
}

// SendBurst emits the segments the window permits at time now. It returns
// an empty burst when the window is full or no data remains. Each call
// allocates a fresh slice; round-driven loops should use AppendBurst with
// a reused buffer instead.
func (s *Sender) SendBurst(now time.Duration) []Segment {
	return s.AppendBurst(nil, now)
}

// AppendBurst is SendBurst writing into caller-owned scratch: the burst
// segments are appended to dst and the grown slice returned, so a driver
// that recycles its buffer (dst[:0]) emits bursts with zero steady-state
// allocations. The appended contents are owned by the caller.
func (s *Sender) AppendBurst(dst []Segment, now time.Duration) []Segment {
	s.conn.Now = now
	// A pending fast retransmission goes out regardless of the window.
	if s.retransmitNext >= 0 {
		id := s.retransmitNext
		s.retransmitNext = -1
		if id > s.retransHigh {
			s.retransHigh = id
		}
		dst = append(dst, Segment{ID: id, Retransmit: true})
		s.pipe++
	}
	budget := s.window() - s.pipe
	if budget <= 0 {
		return dst
	}
	if s.resend >= s.sndNxt {
		// Fast path: nothing to retransmit, every segment is new data.
		end := s.resend + budget
		if end > s.opts.TotalSegments {
			end = s.opts.TotalSegments
		}
		for id := s.resend; id < end; id++ {
			dst = append(dst, Segment{ID: id})
		}
		if n := end - s.resend; n > 0 {
			s.pipe += n
			s.resend = end
			s.sndNxt = end
		}
		return dst
	}
	for i := int64(0); i < budget; i++ {
		id := s.resend
		if id >= s.opts.TotalSegments {
			break
		}
		retx := id < s.sndNxt
		if retx && id > s.retransHigh {
			s.retransHigh = id
		}
		dst = append(dst, Segment{ID: id, Retransmit: retx})
		s.resend++
		if s.resend > s.sndNxt {
			s.sndNxt = s.resend
		}
		s.pipe++
	}
	return dst
}

// BeginRound tells the congestion algorithm a new emulated RTT round is
// starting; the prober calls it before delivering the round's ACKs.
func (s *Sender) BeginRound(round int64) { s.conn.Round = round }

// DeliverAck processes one cumulative ACK for all segments below ackSeg,
// received at time now with the path RTT sample rtt. Duplicate ACKs
// (ackSeg <= sndUna) cancel a pending F-RTO probe, which is exactly the
// counter-measure CAAI relies on.
func (s *Sender) DeliverAck(now time.Duration, ackSeg int64, rtt time.Duration) {
	s.conn.Now = now
	if ackSeg <= s.sndUna {
		s.handleDupAck(now)
		return
	}
	acked := ackSeg - s.sndUna
	s.sndUna = ackSeg
	if s.resend < s.sndUna {
		s.resend = s.sndUna
	}
	s.pipe -= acked
	if s.pipe < 0 {
		s.pipe = 0
	}

	// Karn's rule: no RTT sample from segments that were retransmitted.
	sample := rtt
	if ackSeg <= s.retransHigh+1 && s.retransHigh >= 0 {
		sample = 0
	}
	if sample > 0 {
		s.updateRTT(sample)
		s.conn.ObserveRTT(sample)
	}

	if s.frtoPending {
		// The first ACK after the RTO advanced snd_una without a
		// duplicate ACK in between: the timeout was spurious; undo
		// the congestion response (RFC 5682 step 2b, simplified).
		s.frtoPending = false
		s.conn.Cwnd = s.prevCwnd
		s.conn.Ssthresh = s.prevSsthresh
		s.pipe = s.sndNxt - s.sndUna
		if s.pipe < 0 {
			s.pipe = 0
		}
		return
	}

	s.backoff = 0
	if s.inRecovery {
		// No window growth while recovering from a loss event.
		s.onAdvanceInRecovery(ackSeg)
		return
	}
	s.dupAcks = 0
	before := s.conn.Cwnd
	s.alg.OnAck(s.conn, int(acked), sample)
	if s.opts.SlowStart != SlowStartStandard {
		// The standard scheme is a no-op post-process; skipping the call
		// keeps it off the per-ACK path.
		s.applySlowStartScheme(before, sample)
	}
	if s.opts.CwndClamp > 0 && s.conn.Cwnd > s.opts.CwndClamp {
		s.conn.Cwnd = s.opts.CwndClamp
	}
}

// updateRTT applies the RFC 6298 estimator.
func (s *Sender) updateRTT(r time.Duration) {
	if s.srtt == 0 {
		s.srtt = r
		s.rttvar = r / 2
		return
	}
	d := s.srtt - r
	if d < 0 {
		d = -d
	}
	s.rttvar = (3*s.rttvar + d) / 4
	s.srtt = (7*s.srtt + r) / 8
}

// RTO returns the current retransmission timeout, including backoff.
func (s *Sender) RTO() time.Duration {
	var rto time.Duration
	if s.srtt == 0 {
		rto = 3 * time.Second // RFC 6298 initial RTO
	} else {
		rto = s.srtt + 4*s.rttvar
		if rto < time.Second {
			rto = time.Second // conservative RTO_min of classic stacks
		}
	}
	rto <<= s.backoff
	if rto > 60*time.Second {
		rto = 60 * time.Second
	}
	return rto
}

// OnRTOExpired applies the retransmission timeout at time now: the slow
// start threshold comes from the congestion algorithm's multiplicative
// decrease, the window collapses to one segment, and transmission restarts
// from the first unacknowledged segment. Servers configured to ignore the
// timeout (Options.IgnoreRTO) do nothing, which the prober observes as
// permanent silence.
func (s *Sender) OnRTOExpired(now time.Duration) {
	if s.opts.IgnoreRTO {
		return
	}
	s.conn.Now = now
	s.prevCwnd = s.conn.Cwnd
	s.prevSsthresh = s.conn.Ssthresh
	s.conn.Ssthresh = s.alg.Ssthresh(s.conn)
	s.conn.Cwnd = 1
	s.conn.LossEvents++
	s.alg.OnTimeout(s.conn)
	s.resend = s.sndUna
	s.pipe = 0
	s.timedOut = true
	s.backoff++
	s.dupAcks = 0
	s.inRecovery = false
	s.retransmitNext = -1
	if s.opts.FRTO {
		s.frtoPending = true
	}
}

// InRecovery reports whether the sender is in fast recovery.
func (s *Sender) InRecovery() bool { return s.inRecovery }
