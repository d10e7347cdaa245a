package probe

import (
	"math/rand"
	"time"

	"repro/internal/netem"
	"repro/internal/tcpsim"
	"repro/internal/trace"
)

// sessionParams bundles everything one trace-gathering session needs.
type sessionParams struct {
	env  Environment
	wmax int
	mss  int
	// path is the single source of truth for the network condition: it
	// carries both the immutable knobs (path.Cond()) and the per-
	// connection burst-loss state.
	path         *netem.Path
	rng          *rand.Rand
	maxPreRounds int
	dupAck       bool
	start        time.Duration
	// tap, when non-nil, observes the session's packets (see Tap). It
	// must not influence gathering.
	tap Tap
}

// session gathers one window trace from a sender. It owns the emulated
// clock for the connection. Sessions are owned by a Prober and reused
// across gatherings: run re-arms the state while keeping the burst and
// ACK scratch buffers, so steady-state gathering allocates nothing per
// round.
type session struct {
	p          sessionParams
	sender     *tcpsim.Sender
	now        time.Duration
	round      int64 // global round counter fed to the CC algorithms
	maxRecvSeq int64 // highest segment received so far, as a count
	ackedHigh  int64 // highest cumulative ACK value the probe has sent

	// Reused per-round scratch (see run).
	burst []tcpsim.Segment
	acks  []int64
}

// maxRetainedScratch caps, in segments, the burst and ACK scratch a
// session keeps from one run to the next. Rounds of ordinary gatherings
// stay far below it: the largest round of three 1,000-target census
// populations is about 650 segments. But a server whose F-RTO undo leaves
// ssthresh infinite after the emulated timeout doubles its post-timeout
// window until the page runs out -- past a million segments per round at
// MSS 100 on a 32 MB page -- and a pooled prober or census worker would
// otherwise pin that scratch, about 24 MB, for as long as it lives.
const maxRetainedScratch = 1 << 14

// run executes the session against sender, filling t, and returns the
// simulated end time. The session's scratch buffers survive across runs,
// unless a run grew one past maxRetainedScratch.
func (s *session) run(sender *tcpsim.Sender, t *trace.Trace, p sessionParams) time.Duration {
	burst, acks := s.burst, s.acks
	*s = session{p: p, sender: sender, now: p.start, burst: burst[:0], acks: acks[:0]}
	s.gatherPre(t)
	if t.TimedOut {
		s.emulateTimeout()
		s.gatherPost(t)
	}
	s.sender = nil // drop the connection so it can be collected between runs
	if cap(s.burst) > maxRetainedScratch {
		s.burst = nil
	}
	if cap(s.acks) > maxRetainedScratch {
		s.acks = nil
	}
	return s.now
}

// receiveBurst simulates the data path: it updates the highest received
// sequence number (subject to data-packet loss) and returns the measured
// window of the round, w = maxSeq(r) - maxSeq(r-1), together with the
// cumulative ACK value CAAI sends for each data packet of the burst. The
// returned ACKs live in the session's scratch and are valid until the next
// round.
//
// Before the timeout CAAI acknowledges each packet as if nothing was lost
// or reordered (the k-th ACK covers the k-th segment of the burst); after
// the timeout every ACK acknowledges all data received so far, which is
// what instantly re-covers the pre-timeout burst during timeout recovery.
func (s *session) receiveBurst(burst []tcpsim.Segment, asIfInOrder bool) (int, []int64) {
	if s.p.path.Cond().Impaired() {
		return s.receiveBurstImpaired(burst, asIfInOrder)
	}
	before := s.maxRecvSeq
	acks := s.acks[:0]
	path, rng := s.p.path, s.p.rng
	for k, seg := range burst {
		if !path.Drop(rng) {
			if count := seg.ID + 1; count > s.maxRecvSeq {
				s.maxRecvSeq = count
			}
		}
		if asIfInOrder {
			acks = append(acks, burst[0].ID+int64(k)+1)
		} else {
			acks = append(acks, s.maxRecvSeq)
		}
	}
	s.acks = acks
	return int(s.maxRecvSeq - before), acks
}

// receiveBurstImpaired is receiveBurst under the extended netem
// impairments: adjacent reordering and duplication on the data path, plus
// burst loss through the path's Gilbert–Elliott channel state. Before the
// timeout the ACK stream stays sequential no matter what arrived (the
// paper's reordering counter-measure), so a duplicate produces a repeated
// cumulative ACK rather than acknowledging unsent data; after the timeout
// every copy acknowledges everything received so far, as the plain path
// does.
func (s *session) receiveBurstImpaired(burst []tcpsim.Segment, asIfInOrder bool) (int, []int64) {
	before := s.maxRecvSeq
	acks := s.acks[:0]
	path, rng := s.p.path, s.p.rng
	inOrder := int64(0) // as-if-in-order arrival count within the burst
	arrive := func(seg tcpsim.Segment) {
		duplicated := path.Dup(rng)
		for copies := 0; copies < 2; copies++ {
			if !path.Drop(rng) {
				if count := seg.ID + 1; count > s.maxRecvSeq {
					s.maxRecvSeq = count
				}
			}
			if asIfInOrder {
				if copies == 0 {
					inOrder++
				}
				acks = append(acks, burst[0].ID+inOrder)
			} else {
				acks = append(acks, s.maxRecvSeq)
			}
			if !duplicated {
				break
			}
		}
	}
	for i := 0; i < len(burst); i++ {
		if i+1 < len(burst) && path.Reorder(rng) {
			arrive(burst[i+1]) // the successor overtakes this packet
			arrive(burst[i])
			i++
			continue
		}
		arrive(burst[i])
	}
	s.acks = acks
	return int(s.maxRecvSeq - before), acks
}

// deliverAcks sends the prepared cumulative ACKs, each independently
// subject to ACK loss, all arriving after the emulated RTT of the round.
func (s *session) deliverAcks(acks []int64, rtt time.Duration) {
	if len(acks) == 0 {
		return
	}
	path, rng := s.p.path, s.p.rng
	arrive := s.now + rtt
	sample := rtt + path.Cond().Jitter(rng, rtt)
	s.round++
	s.sender.BeginRound(s.round)
	for _, ackSeg := range acks {
		if ackSeg > s.ackedHigh {
			s.ackedHigh = ackSeg
		}
		if path.Drop(rng) {
			continue // ACK lost on the way to the server
		}
		if s.p.tap != nil {
			s.p.tap.Ack(arrive, ackSeg)
		}
		s.sender.DeliverAck(arrive, ackSeg, sample)
	}
	s.now = arrive
}

// gatherPre runs the pre-timeout rounds until the measured window exceeds
// wmax, the data runs out, or the round budget is exhausted.
func (s *session) gatherPre(t *trace.Trace) {
	for r := 1; r <= s.p.maxPreRounds; r++ {
		s.burst = s.sender.AppendBurst(s.burst[:0], s.now)
		if len(s.burst) == 0 {
			if s.sender.DataExhausted() {
				t.DataExhausted = true
				return
			}
			// Every ACK of the previous round was lost: the real
			// server hits its own RTO and retransmits.
			s.now += s.sender.RTO()
			s.sender.OnRTOExpired(s.now)
			continue
		}
		s.tapBurst()
		w, acks := s.receiveBurst(s.burst, true)
		t.Pre = append(t.Pre, w)
		if w > s.p.wmax {
			t.TimedOut = true
			return // go silent: the emulated timeout begins
		}
		s.deliverAcks(acks, s.p.env.PreRTT(r))
	}
}

// emulateTimeout lets the server's RTO fire and defuses F-RTO with a
// duplicate ACK, exactly as the paper's counter-measure does.
func (s *session) emulateTimeout() {
	s.now += s.sender.RTO()
	s.sender.OnRTOExpired(s.now)
	if s.p.dupAck {
		// A duplicate of the last cumulative ACK: forces conventional
		// timeout recovery on F-RTO servers.
		if s.p.tap != nil {
			s.p.tap.Ack(s.now, s.ackedHigh)
		}
		s.sender.DeliverAck(s.now, s.ackedHigh, 0)
	}
}

// tapBurst reports the just-built burst to the session tap, if any: every
// segment leaves the server at the current emulated time.
func (s *session) tapBurst() {
	if s.p.tap == nil {
		return
	}
	for _, seg := range s.burst {
		s.p.tap.Data(s.now, seg)
	}
}

// gatherPost gathers the post-timeout rounds; every received data packet
// is answered with an ACK covering everything received so far.
func (s *session) gatherPost(t *trace.Trace) {
	for r := 1; r <= postRounds; r++ {
		s.burst = s.sender.AppendBurst(s.burst[:0], s.now)
		if len(s.burst) == 0 && s.sender.DataExhausted() {
			t.DataExhausted = true
			return
		}
		s.tapBurst()
		w, acks := s.receiveBurst(s.burst, false)
		t.Post = append(t.Post, w)
		rtt := s.p.env.PostRTT(r)
		if len(s.burst) == 0 {
			// Silent server (e.g. one that ignores the timeout):
			// time still passes.
			s.now += rtt
			continue
		}
		s.deliverAcks(acks, rtt)
	}
}
