package flow

import (
	"fmt"
	"time"

	"repro/internal/probe"
	"repro/internal/trace"
)

// FlowTrace is one reconstructed flow: its endpoints, transport
// statistics, and -- when the flow carried data -- the per-RTT window
// trace in the shape the classifier pipeline consumes.
type FlowTrace struct {
	// Client and Server are "ip:port" endpoints; the server is the side
	// that sent the bulk of the data.
	Client string
	Server string
	// ClientIP is the client address without the port (flow pairing
	// groups the connections one client makes to one server).
	ClientIP string
	// Trace is the reconstructed window trace (nil when the flow carried
	// no data). Env is assigned during pairing; WmaxThreshold is the
	// ladder estimate derived from the pre-timeout peak.
	Trace *trace.Trace
	// Packets, DataPackets and Retransmits count both directions,
	// the data direction, and its retransmissions.
	Packets     int64
	DataPackets int64
	Retransmits int64
	Rounds      int
	// RTT is the flow's estimate (handshake, else timestamp echo; 0 when
	// neither was available).
	RTT time.Duration
	// Start and End delimit the flow's activity in capture time.
	Start time.Time
	End   time.Time
	// MSS is the negotiated segment size estimate.
	MSS int
	// Truncated reports that round recording hit the MaxRounds bound.
	Truncated bool
	// SawSYN reports whether the capture included the flow's handshake.
	SawSYN bool
}

// String renders a compact one-line summary.
func (f *FlowTrace) String() string {
	tr := "no data"
	if f.Trace != nil {
		tr = fmt.Sprintf("pre=%d post=%d timeout=%v", len(f.Trace.Pre), len(f.Trace.Post), f.Trace.TimedOut)
	}
	return fmt.Sprintf("%s -> %s pkts=%d rtt=%s %s", f.Client, f.Server, f.Packets, f.RTT, tr)
}

// finalize turns one tracked flow into its FlowTrace.
func (t *Tracker) finalize(s *state) *FlowTrace {
	// The data direction (the "server") is the side that sent more
	// payload; ties go to the SYN-ACK sender when the handshake was seen.
	dataDir := 0
	switch {
	case s.dirs[1].dataBytes > s.dirs[0].dataBytes:
		dataDir = 1
	case s.dirs[1].dataBytes == s.dirs[0].dataBytes && s.synDir == 0:
		dataDir = 1
	}
	d := &s.dirs[dataDir]
	t.closeRound(d)

	ft := &FlowTrace{
		Client:      s.key.sideString(1 - dataDir),
		Server:      s.key.sideString(dataDir),
		ClientIP:    s.key.sideIP(1 - dataDir),
		Packets:     s.dirs[0].packets + s.dirs[1].packets,
		DataPackets: d.packets,
		Retransmits: d.retx,
		Rounds:      len(d.rounds),
		RTT:         s.rtt(),
		Start:       timeOf(s.first),
		End:         timeOf(s.last),
		MSS:         negotiatedMSS(s),
		Truncated:   d.truncated,
		SawSYN:      s.sawSYN,
	}
	if len(d.rounds) == 0 || ft.MSS <= 0 {
		return ft // no data: flow summary only
	}

	// Build the window trace in the reused recorder, then clone it out:
	// the recorder's buffers are recycled for the next flow (the
	// trace.Recorder ownership contract).
	tr := t.rec.Reset("", 0, ft.MSS)
	mss := int64(ft.MSS)
	for i, r := range d.rounds {
		// Rounded division: clean captures carry exact multiples of the
		// MSS; rounding absorbs odd-sized tail segments in real traffic.
		w := int((r.newBytes + mss/2) / mss)
		if d.timeoutRound >= 0 && i >= d.timeoutRound {
			tr.Post = append(tr.Post, w)
		} else {
			tr.Pre = append(tr.Pre, w)
		}
	}
	tr.TimedOut = d.timeoutRound >= 0
	tr.WmaxThreshold = estimateWmax(tr)
	ft.Trace = tr.Clone()
	return ft
}

// estimateWmax infers the prober's wmax threshold from a reconstructed
// trace: the timeout fired when the window first exceeded the threshold,
// so the largest rung of the paper's full ladder below the pre-timeout
// peak is the best estimate (exact whenever the peak did not overshoot
// past the next rung, which clean slow-start paths do not). The paper's
// ladder, not the served one: a foreign prober can time out at any of its
// rungs, and a flow above the model's top trained rung is left for the
// identifier to answer UNSURE. Without a timeout the peak window itself
// is reported.
func estimateWmax(tr *trace.Trace) int {
	if !tr.TimedOut || len(tr.Pre) == 0 {
		return tr.MaxWindow()
	}
	wTmo := tr.Pre[len(tr.Pre)-1]
	for _, rung := range probe.Paper.WmaxLadder {
		if rung < wTmo {
			return rung
		}
	}
	if wTmo > 1 {
		return wTmo - 1
	}
	return 1
}

// sideString renders key side i (0 = a, 1 = b) as "ip:port".
func (k *flowKey) sideString(i int) string {
	if i == 0 {
		return k.a.String()
	}
	return k.b.String()
}

// sideIP renders key side i's address without the port.
func (k *flowKey) sideIP(i int) string {
	e := k.a
	if i == 1 {
		e = k.b
	}
	e.port = 0
	s := e.String()
	// Strip the ":0" port suffix AddrPort rendering appends.
	return s[:len(s)-2]
}

// negotiatedMSS estimates the segment size: the smaller of the two SYN
// MSS options, else the largest data segment observed.
func negotiatedMSS(s *state) int {
	a, b := s.dirs[0].mssOpt, s.dirs[1].mssOpt
	switch {
	case a > 0 && b > 0:
		if a < b {
			return int(a)
		}
		return int(b)
	case a > 0:
		return int(a)
	case b > 0:
		return int(b)
	}
	d := s.dirs[0].maxSegLen
	if s.dirs[1].maxSegLen > d {
		d = s.dirs[1].maxSegLen
	}
	return d
}
