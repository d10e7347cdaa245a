// Package pcap is a pure-Go (no cgo, no libpcap) streaming decoder for
// packet capture files: classic pcap (all four magic variants) and pcapng
// (section/interface/enhanced/simple packet blocks), Ethernet, loopback
// and raw-IP link layers, IPv4 and IPv6, and TCP headers including the
// options CAAI's flow reconstruction needs (MSS, window scale, SACK,
// timestamps). The reader is an iterator over caller-owned Packet structs
// and never buffers more than one block, so arbitrarily large captures
// decode in constant memory. The package also provides classic-pcap and
// pcapng writers, used by internal/pcapgen to synthesize round-trippable
// captures from simulated TCP senders.
//
// Decoding is strict at the file-framing layer (bad magic, impossible
// block or capture lengths are errors, never panics or unbounded
// allocations) and tolerant at the packet layer: non-TCP, fragmented, or
// snaplen-truncated packets are counted and skipped, exactly as passive
// measurement tools must behave on production captures.
package pcap

import (
	"fmt"
	"net/netip"
)

// Link types (the subset of the tcpdump LINKTYPE registry the decoder
// understands).
const (
	// LinkNull is the BSD loopback encapsulation: a 4-byte host-endian
	// address family precedes the IP packet.
	LinkNull = 0
	// LinkEthernet is standard 14-byte Ethernet II framing.
	LinkEthernet = 1
	// LinkRaw is raw IP: the packet begins directly with the IP header.
	LinkRaw = 101
	// LinkLoop is OpenBSD loopback: like LinkNull with a big-endian
	// address family.
	LinkLoop = 108
)

// MaxSnapLen bounds the per-packet capture length (and pcapng block
// length) the reader accepts. Anything larger is a framing error: no
// real-world capture carries megabyte frames, and the bound keeps a
// malicious length field from turning into an unbounded allocation.
const MaxSnapLen = 1 << 20

// TCP header flags.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// SackBlock is one SACK option block (absolute sequence edges).
type SackBlock struct {
	Start uint32
	End   uint32
}

// maxSackBlocks is the most blocks a 40-byte option area can carry.
const maxSackBlocks = 4

// TCPOptions carries the parsed TCP options of one segment.
type TCPOptions struct {
	// MSS is the maximum segment size option (SYN segments).
	MSS    uint16
	HasMSS bool
	// WScale is the window scale shift count (SYN segments).
	WScale    uint8
	HasWScale bool
	// SackPermitted reports the SACK-permitted option (SYN segments).
	SackPermitted bool
	// Sack holds up to four SACK blocks; SackCount is how many are valid.
	Sack      [maxSackBlocks]SackBlock
	SackCount int
	// TSVal and TSEcr are the RFC 7323 timestamp value and echo reply.
	TSVal uint32
	TSEcr uint32
	HasTS bool
}

// Packet is one decoded TCP segment. Next fills a caller-owned Packet, so
// iterating a capture allocates nothing per packet.
type Packet struct {
	// UnixNano is the capture timestamp in Unix nanoseconds. A stamp
	// outside the int64 range saturates at math.MaxInt64; a pcapng
	// simple packet block, which carries no timestamp, reads
	// math.MinInt64.
	UnixNano int64
	// IPv6 reports the IP version; addresses are stored as 16-byte
	// values, IPv4 in the v4-mapped form.
	IPv6  bool
	SrcIP [16]byte
	DstIP [16]byte
	// SrcPort and DstPort are the TCP ports.
	SrcPort uint16
	DstPort uint16
	// Seq and Ack are the raw 32-bit sequence and acknowledgment numbers.
	Seq uint32
	Ack uint32
	// Flags is the TCP flag byte (FlagSYN | FlagACK | ...).
	Flags uint8
	// Window is the unscaled advertised window.
	Window uint16
	// PayloadLen is the TCP payload length in bytes, derived from the IP
	// length fields -- correct even when the capture's snaplen truncated
	// the payload bytes away.
	PayloadLen int
	// CapturedLen and OrigLen are the captured and original (on-the-wire)
	// frame lengths.
	CapturedLen int
	OrigLen     int
	// Opt holds the parsed TCP options.
	Opt TCPOptions
}

// Src renders the source endpoint as "ip:port".
func (p *Packet) Src() string { return endpoint(p.SrcIP, p.SrcPort) }

// Dst renders the destination endpoint as "ip:port".
func (p *Packet) Dst() string { return endpoint(p.DstIP, p.DstPort) }

func endpoint(ip [16]byte, port uint16) string {
	return netip.AddrPortFrom(netip.AddrFrom16(ip).Unmap(), port).String()
}

// FIN, SYN, RST, ACK report the respective flag bits.
func (p *Packet) FIN() bool { return p.Flags&FlagFIN != 0 }
func (p *Packet) SYN() bool { return p.Flags&FlagSYN != 0 }
func (p *Packet) RST() bool { return p.Flags&FlagRST != 0 }
func (p *Packet) ACK() bool { return p.Flags&FlagACK != 0 }

// Stats counts what the reader saw, including the packets it skipped, so
// ingest pipelines can report decode health (the service exposes these on
// /metrics).
type Stats struct {
	// Packets is every capture record read, TCP or not.
	Packets int64
	// TCP is how many records decoded to TCP segments (what Next returns).
	TCP int64
	// Skipped counts records that were not TCP over IPv4/IPv6 (ARP, UDP,
	// fragments, unknown link protocols, per-packet garbage).
	Skipped int64
	// Truncated counts records whose snaplen cut into the link/IP/TCP
	// headers, making them undecodable.
	Truncated int64
}

// ErrFormat marks input that is not a pcap or pcapng capture at all.
var ErrFormat = fmt.Errorf("pcap: unrecognized capture format")
