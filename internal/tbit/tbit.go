// Package tbit reimplements the TBIT probes (Padhye and Floyd, SIGCOMM
// 2001) that CAAI builds on: the paper identifies the congestion avoidance
// component and defers the initial window and loss recovery components to
// TBIT, whose source CAAI literally extends. The probes here -- initial
// window measurement, loss recovery classification (Tahoe / Reno /
// NewReno), and the multiplicative decrease measured through a *loss
// event* -- also demonstrate why CAAI emulates timeouts instead of loss
// events: Linux burstiness control (cwnd moderation) makes the post-loss
// window far smaller than beta*w(tmo) (Section IV-B).
package tbit

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/websim"
)

// probeRTT is the emulated RTT used by the TBIT sessions.
const probeRTT = time.Second

// ErrNoTrigger reports that the loss event never produced a fast
// retransmit (e.g. the window stayed too small).
var ErrNoTrigger = errors.New("tbit: loss event did not trigger a response")

// Prober runs TBIT measurements against simulated servers. Every session
// runs lossless in-order ACKs at a fixed probeRTT, so a prober needs no
// network condition or randomness: the zero Prober is ready to use. Not
// safe for concurrent use.
type Prober struct {
	dialer websim.Dialer
}

// session is a minimal per-packet-controlled gathering loop. It plays the
// receiver: received tracks delivered segments at and above base (all
// segments below base were delivered in order during window growth).
type session struct {
	sender   *tcpsim.Sender
	now      time.Duration
	round    int64
	base     int64
	received map[int64]bool
}

// open connects to server through the prober's dialer; the session is
// valid until the next open.
func (p *Prober) open(server *websim.Server, mss int) (*session, error) {
	sender, err := p.dialer.Open(server, mss, 12, server.LongestPageBytes, 0)
	if err != nil {
		return nil, fmt.Errorf("tbit: %w", err)
	}
	return &session{sender: sender, received: map[int64]bool{}}, nil
}

// cum returns the receiver's cumulative ACK value: the first segment at or
// above base that has not been delivered.
func (s *session) cum() int64 {
	c := s.base
	for s.received[c] {
		c++
	}
	return c
}

// ackInOrder acknowledges a burst segment-by-segment with in-order
// cumulative ACKs, advancing the emulated clock one RTT and the receiver's
// in-order base.
func (s *session) ackInOrder(burst []tcpsim.Segment) {
	if len(burst) == 0 {
		s.now += probeRTT
		return
	}
	arr := s.now + probeRTT
	s.round++
	s.sender.BeginRound(s.round)
	for _, seg := range burst {
		s.sender.DeliverAck(arr, seg.ID+1, probeRTT)
	}
	s.base = burst[len(burst)-1].ID + 1
	s.now = arr
}

// InitialWindow measures the server's initial congestion window: the size
// of the first burst after connection establishment (the TBIT IW test).
func (p *Prober) InitialWindow(server *websim.Server, mss int) (int, error) {
	sess, err := p.open(server, mss)
	if err != nil {
		return 0, err
	}
	burst := sess.sender.SendBurst(0)
	if len(burst) == 0 {
		return 0, errors.New("tbit: server sent no data")
	}
	return len(burst), nil
}

// growWindow drives the sender with clean ACKs until its burst reaches at
// least target segments, returning that burst.
func (s *session) growWindow(target int) ([]tcpsim.Segment, error) {
	for r := 0; r < 32; r++ {
		burst := s.sender.SendBurst(s.now)
		if len(burst) >= target {
			return burst, nil
		}
		if len(burst) == 0 {
			return nil, errors.New("tbit: sender stalled while growing the window")
		}
		s.ackInOrder(burst)
	}
	return nil, errors.New("tbit: window never reached the target")
}

// lossEvent acknowledges burst while withholding the segments in drops,
// sending the cumulative ACK after each delivered segment -- every segment
// above the first hole produces a duplicate ACK, the classic
// three-dup-ACK loss event.
func (s *session) lossEvent(burst []tcpsim.Segment, drops map[int64]bool) {
	arr := s.now + probeRTT
	s.round++
	s.sender.BeginRound(s.round)
	s.base = burst[0].ID // everything before the burst is already acked
	for _, seg := range burst {
		if drops[seg.ID] {
			continue // lost on the path
		}
		s.received[seg.ID] = true
		s.sender.DeliverAck(arr, s.cum(), probeRTT)
	}
	s.now = arr
}

// MultiplicativeDecrease measures beta through a *loss event*: it grows
// the window to w, drops a single segment, lets fast recovery run, and
// returns postLossWindow / preLossWindow. With Linux burstiness control
// the result is far below the algorithm's true beta -- the paper's
// Section IV-B argument for emulating timeouts instead.
func (p *Prober) MultiplicativeDecrease(server *websim.Server, mss int) (float64, error) {
	sess, err := p.open(server, mss)
	if err != nil {
		return 0, err
	}
	burst, err := sess.growWindow(16)
	if err != nil {
		return 0, err
	}
	pre := len(burst)
	drop := burst[1].ID
	sess.lossEvent(burst, map[int64]bool{drop: true})

	// Drive until recovery completes and a clean post-loss burst of new
	// data appears; its size is the post-loss window.
	for r := 0; r < 8; r++ {
		out := sess.sender.SendBurst(sess.now)
		if len(out) == 0 {
			return 0, ErrNoTrigger
		}
		if allNew(out) && !sess.sender.InRecovery() && r > 0 {
			return float64(len(out)) / float64(pre), nil
		}
		sess.ackCumulative(out)
	}
	return 0, ErrNoTrigger
}

// ackCumulative delivers each segment of the burst to the receiver and
// acknowledges it with the running cumulative value (holes fill in as
// retransmissions arrive).
func (s *session) ackCumulative(burst []tcpsim.Segment) {
	arr := s.now + probeRTT
	s.round++
	s.sender.BeginRound(s.round)
	for _, seg := range burst {
		s.received[seg.ID] = true
		s.sender.DeliverAck(arr, s.cum(), probeRTT)
	}
	s.now = arr
}

// LossRecovery classifies the server's loss recovery scheme with the TBIT
// two-drop test: two segments of the same window are withheld, and the
// retransmission pattern identifies NewReno (second hole retransmitted on
// the partial ACK), Reno (second hole waits for the RTO), or Tahoe
// (window collapses to one and slow starts).
func (p *Prober) LossRecovery(server *websim.Server, mss int) (string, error) {
	sess, err := p.open(server, mss)
	if err != nil {
		return "", err
	}
	burst, err := sess.growWindow(16)
	if err != nil {
		return "", err
	}
	drop1 := burst[1].ID
	drop2 := burst[3].ID
	sess.lossEvent(burst, map[int64]bool{drop1: true, drop2: true})

	rtoFired := false
	postRecoveryBurst := 0
	for r := 0; r < 12; r++ {
		out := sess.sender.SendBurst(sess.now)
		if len(out) == 0 {
			if sess.sender.DataExhausted() {
				break
			}
			// Stalled: the real server's RTO fires.
			sess.now += sess.sender.RTO()
			sess.sender.OnRTOExpired(sess.now)
			rtoFired = true
			continue
		}
		recovered := sess.received[drop1] && sess.received[drop2]
		if recovered && !sess.sender.InRecovery() && allNew(out) {
			postRecoveryBurst = len(out)
			break
		}
		sess.ackCumulative(out)
	}
	switch {
	case !sess.received[drop1] || !sess.received[drop2]:
		return "", ErrNoTrigger
	case rtoFired:
		// Only the RTO recovered the second hole: classic Reno.
		return tcpsim.RecoveryReno.String(), nil
	case postRecoveryBurst > 0 && postRecoveryBurst*3 <= len(burst):
		// The window collapsed to one and is doubling back up: Tahoe.
		return tcpsim.RecoveryTahoe.String(), nil
	default:
		// Both holes retransmitted promptly and the window resumed
		// near half the pre-loss value: NewReno fast recovery.
		return tcpsim.RecoveryNewReno.String(), nil
	}
}

// allNew reports whether a burst contains no retransmissions.
func allNew(burst []tcpsim.Segment) bool {
	for _, seg := range burst {
		if seg.Retransmit {
			return false
		}
	}
	return true
}
