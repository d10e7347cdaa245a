// Package pcapgen synthesizes packet captures from the simulated probe
// pipeline: it attaches a wire-level tap (probe.Tap) to a prober, runs the
// ordinary ladder gathering against simulated Web servers, and writes
// every observed segment as an Ethernet/IPv4/TCP frame into a pcap or
// pcapng file. The captures are deterministic for a fixed spec list, and
// Generate also returns the direct gathering results of the very same
// runs -- which is what makes every decoder and flow-reconstruction
// feature round-trip testable: simulate -> write pcap -> ingest ->
// classify must agree with the direct simulated path.
//
// The synthetic capture is taken at the server's vantage point: data
// segments appear when they leave the server, ACKs when they arrive, and
// each gathering connection gets a full handshake (SYN carrying the
// negotiated MSS, timestamps, SACK-permitted), an HTTP-request-sized
// client payload, and a closing FIN exchange. Payload bytes are zeros and
// truncated at the configured snap length, as production header-only
// captures are.
package pcapgen

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"repro/internal/netem"
	"repro/internal/pcap"
	"repro/internal/probe"
	"repro/internal/tcpsim"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// ServerSpec is one simulated server to probe into the capture: the
// resulting file contains every connection of the ladder walk (normally
// the environment A and B gatherings).
type ServerSpec struct {
	// Algorithm is the server's congestion avoidance algorithm (ignored
	// when Server is set).
	Algorithm string
	// Server overrides the default cooperative testbed server.
	Server *websim.Server
	// Cond is the network condition (zero value: lossless testbed path).
	Cond netem.Condition
	// Seed drives the gathering deterministically (0 is normalized to 1).
	Seed int64
}

// Options tunes capture generation. The zero value is usable.
type Options struct {
	// Format is "pcap" (default) or "pcapng".
	Format string
	// SnapLen truncates captured frames; 0 means DefaultSnapLen, which
	// keeps headers and drops payload bytes (they are zeros anyway).
	SnapLen uint32
	// BaseTime is the capture epoch; zero means a fixed deterministic
	// epoch so identical specs produce byte-identical captures.
	BaseTime time.Time
	// Probe customizes the gathering (zero fields resolve to the served
	// lean budget; probe.Paper is the paper's).
	Probe probe.Config
}

// DefaultSnapLen keeps link/IP/TCP headers with all options and cuts
// payloads, like a production header-only capture.
const DefaultSnapLen = 96

// defaultBaseTime is an arbitrary fixed epoch (2024-01-01T00:00:00Z).
var defaultBaseTime = time.Unix(1704067200, 0).UTC()

// specGap separates consecutive specs' flows on the capture clock.
const specGap = time.Hour

// requestBytes is the synthetic HTTP request payload size.
const requestBytes = 73

// Generate probes every spec through a tapped prober, writes the observed
// packets to w, and returns the direct gathering result of each spec --
// the ground truth the passive pipeline is measured against.
func Generate(w io.Writer, specs []ServerSpec, opts Options) ([]*probe.Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("pcapgen: no server specs")
	}
	if opts.SnapLen == 0 {
		opts.SnapLen = DefaultSnapLen
	}
	if opts.BaseTime.IsZero() {
		opts.BaseTime = defaultBaseTime
	}
	pw, err := pcap.NewPacketWriter(w, opts.Format, pcap.LinkEthernet, opts.SnapLen)
	if err != nil {
		return nil, err
	}
	results := make([]*probe.Result, len(specs))
	for i, spec := range specs {
		server := spec.Server
		if server == nil {
			if spec.Algorithm == "" {
				return nil, fmt.Errorf("pcapgen: spec %d names no algorithm and no server", i)
			}
			server = websim.Testbed(spec.Algorithm)
		}
		seed := spec.Seed
		if seed == 0 {
			seed = 1
		}
		tap := &captureTap{
			w:          pw,
			base:       opts.BaseTime.Add(time.Duration(i) * specGap),
			client:     netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i&0xff) + 1}),
			server:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i&0xff) + 1}),
			serverPort: 80,
			nextPort:   40001,
		}
		p := probe.New(opts.Probe, spec.Cond, xrand.New(seed))
		p.SetTap(tap)
		results[i] = p.Gather(server)
		if tap.err != nil {
			return nil, fmt.Errorf("pcapgen: writing capture for spec %d: %w", i, tap.err)
		}
	}
	return results, nil
}

// captureTap renders probe.Tap events as TCP frames. One tap serves all
// connections of one spec's ladder walk.
type captureTap struct {
	w          pcap.PacketWriter
	base       time.Time
	client     netip.Addr
	server     netip.Addr
	serverPort uint16
	nextPort   uint16
	err        error

	// Per-connection state.
	open       bool
	clientPort uint16
	mss        int
	// shift delays all session events past the handshake: the server
	// sends its first burst one RTT after the SYN-ACK (when the request
	// arrives), which the session clock does not model.
	shift     time.Duration
	clientISN uint32
	serverISN uint32
	// last is the time of the previously written packet; emissions are
	// spaced at least one microsecond apart so capture order, timestamp
	// order, and event order all agree.
	last     time.Duration
	tsClient uint32
	tsServer uint32
	frame    []byte
}

// Connect opens a new connection: handshake plus request.
func (c *captureTap) Connect(now time.Duration, env probe.Environment, wmax, mss int) {
	c.open = true
	c.clientPort = c.nextPort
	c.nextPort++
	c.mss = mss
	rtt := env.PreRTT(1)
	c.shift = rtt + time.Millisecond
	// Deterministic, connection-distinct ISNs.
	c.clientISN = 1_000_000 + uint32(c.clientPort)*2048
	c.serverISN = 5_000_000 + uint32(c.clientPort)*4096
	c.last = now - time.Microsecond

	// SYN (the client announces the MSS the prober negotiated), SYN-ACK,
	// then one RTT later the handshake ACK and the pipelined request.
	c.emit(now, true, &pcap.FrameSpec{
		Seq: c.clientISN, Flags: pcap.FlagSYN, Window: 65535,
		Opt: pcap.TCPOptions{MSS: uint16(mss), HasMSS: true, SackPermitted: true,
			HasWScale: true, WScale: 9, HasTS: true, TSVal: c.tsval(now), TSEcr: 0},
	})
	c.emit(now, false, &pcap.FrameSpec{
		Seq: c.serverISN, Ack: c.clientISN + 1, Flags: pcap.FlagSYN | pcap.FlagACK, Window: 65535,
		Opt: pcap.TCPOptions{MSS: uint16(mss), HasMSS: true, SackPermitted: true,
			HasWScale: true, WScale: 9, HasTS: true, TSVal: c.tsval(now), TSEcr: c.tsClient},
	})
	ackAt := now + rtt
	c.emit(ackAt, true, &pcap.FrameSpec{
		Seq: c.clientISN + 1, Ack: c.serverISN + 1, Flags: pcap.FlagACK, Window: 65535,
		Opt: pcap.TCPOptions{HasTS: true, TSVal: c.tsval(ackAt), TSEcr: c.tsServer},
	})
	c.emit(ackAt, true, &pcap.FrameSpec{
		Seq: c.clientISN + 1, Ack: c.serverISN + 1, Flags: pcap.FlagACK | pcap.FlagPSH,
		Window: 65535, PayloadLen: requestBytes,
		Opt: pcap.TCPOptions{HasTS: true, TSVal: c.tsval(ackAt), TSEcr: c.tsServer},
	})
}

// Data renders one server data segment.
func (c *captureTap) Data(now time.Duration, seg tcpsim.Segment) {
	if !c.open {
		return
	}
	at := now + c.shift
	flags := uint8(pcap.FlagACK)
	if seg.Retransmit {
		flags |= pcap.FlagPSH
	}
	c.emit(at, false, &pcap.FrameSpec{
		Seq:   c.serverISN + 1 + uint32(seg.ID)*uint32(c.mss),
		Ack:   c.clientISN + 1 + requestBytes,
		Flags: flags, Window: 65535, PayloadLen: c.mss,
		Opt: pcap.TCPOptions{HasTS: true, TSVal: c.tsval(at), TSEcr: c.tsClient},
	})
}

// Ack renders one cumulative client ACK arriving at the server.
func (c *captureTap) Ack(now time.Duration, ackSeg int64) {
	if !c.open {
		return
	}
	at := now + c.shift
	c.emit(at, true, &pcap.FrameSpec{
		Seq:   c.clientISN + 1 + requestBytes,
		Ack:   c.serverISN + 1 + uint32(ackSeg)*uint32(c.mss),
		Flags: pcap.FlagACK, Window: 65535,
		Opt: pcap.TCPOptions{HasTS: true, TSVal: c.tsval(at), TSEcr: c.tsServer},
	})
}

// Close ends the connection with a FIN exchange.
func (c *captureTap) Close(now time.Duration) {
	if !c.open {
		return
	}
	at := now + c.shift
	c.emit(at, true, &pcap.FrameSpec{
		Seq: c.clientISN + 1 + requestBytes, Ack: c.serverISN + 1,
		Flags: pcap.FlagFIN | pcap.FlagACK, Window: 65535,
		Opt: pcap.TCPOptions{HasTS: true, TSVal: c.tsval(at), TSEcr: c.tsServer},
	})
	c.emit(at, false, &pcap.FrameSpec{
		Seq: c.serverISN + 1, Ack: c.clientISN + 2 + requestBytes,
		Flags: pcap.FlagFIN | pcap.FlagACK, Window: 65535,
		Opt: pcap.TCPOptions{HasTS: true, TSVal: c.tsval(at), TSEcr: c.tsClient},
	})
	c.open = false
}

// tsval is the RFC 7323 timestamp clock: milliseconds of emulated time.
func (c *captureTap) tsval(at time.Duration) uint32 {
	return uint32(at / time.Millisecond)
}

// emit writes one frame, from the client when fromClient is set. Session
// events may share an emulated instant; emission bumps each packet at
// least one microsecond past the previous so file order equals time
// order.
func (c *captureTap) emit(at time.Duration, fromClient bool, spec *pcap.FrameSpec) {
	if c.err != nil {
		return
	}
	if at <= c.last {
		at = c.last + time.Microsecond
	}
	c.last = at
	if fromClient {
		spec.Src = netip.AddrPortFrom(c.client, c.clientPort)
		spec.Dst = netip.AddrPortFrom(c.server, c.serverPort)
		c.tsClient = spec.Opt.TSVal
	} else {
		spec.Src = netip.AddrPortFrom(c.server, c.serverPort)
		spec.Dst = netip.AddrPortFrom(c.client, c.clientPort)
		c.tsServer = spec.Opt.TSVal
	}
	c.frame = pcap.AppendFrame(c.frame[:0], spec)
	c.err = c.w.WritePacket(c.base.Add(at), len(c.frame), c.frame)
}
