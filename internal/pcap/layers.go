package pcap

import "encoding/binary"

// parseResult classifies one capture record.
type parseResult int

const (
	parsedTCP parseResult = iota
	parsedSkip
	parsedTruncated
)

// be is the network byte order every header field uses.
var be = binary.BigEndian

// parseFrame decodes one captured frame of the given link type into pkt
// (which already carries UnixNano/CapturedLen/OrigLen). It never errors: a
// frame that is not a whole TCP/IP packet is classified as skipped or
// truncated and the reader moves on, as passive tools must on real
// captures.
func parseFrame(linkType uint32, data []byte, pkt *Packet) parseResult {
	switch linkType {
	case LinkEthernet:
		if len(data) < 14 {
			return parsedTruncated
		}
		etherType := be.Uint16(data[12:14])
		data = data[14:]
		// Unwrap up to two VLAN tags (802.1Q / QinQ).
		for tags := 0; tags < 2 && (etherType == 0x8100 || etherType == 0x88a8); tags++ {
			if len(data) < 4 {
				return parsedTruncated
			}
			etherType = be.Uint16(data[2:4])
			data = data[4:]
		}
		switch etherType {
		case 0x0800:
			return parseIPv4(data, pkt)
		case 0x86dd:
			return parseIPv6(data, pkt)
		default:
			return parsedSkip
		}
	case LinkNull, LinkLoop:
		if len(data) < 4 {
			return parsedTruncated
		}
		// LinkNull writes the address family in the capturing host's byte
		// order; accept either. LinkLoop is always big-endian, which the
		// either-endian check covers too.
		famLE := binary.LittleEndian.Uint32(data[:4])
		famBE := be.Uint32(data[:4])
		data = data[4:]
		switch {
		case famLE == 2 || famBE == 2:
			return parseIPv4(data, pkt)
		case isV6Family(famLE) || isV6Family(famBE):
			return parseIPv6(data, pkt)
		default:
			return parsedSkip
		}
	case LinkRaw:
		if len(data) < 1 {
			return parsedTruncated
		}
		switch data[0] >> 4 {
		case 4:
			return parseIPv4(data, pkt)
		case 6:
			return parseIPv6(data, pkt)
		default:
			return parsedSkip
		}
	default:
		return parsedSkip
	}
}

// isV6Family reports whether fam is one of the AF_INET6 values the BSDs
// use on loopback (24 FreeBSD/macOS, 28 OpenBSD, 30 NetBSD, 10 Linux).
func isV6Family(fam uint32) bool {
	switch fam {
	case 10, 24, 28, 30:
		return true
	}
	return false
}

// v4Prefix is the IPv4-mapped IPv6 prefix ::ffff:0:0/96.
var v4Prefix = [12]byte{10: 0xff, 11: 0xff}

func parseIPv4(data []byte, pkt *Packet) parseResult {
	if len(data) < 20 {
		return parsedTruncated
	}
	if data[0]>>4 != 4 {
		return parsedSkip
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 {
		return parsedSkip
	}
	totalLen := int(be.Uint16(data[2:4]))
	if totalLen < ihl {
		return parsedSkip
	}
	if data[9] != 6 { // not TCP
		return parsedSkip
	}
	// Fragments other than the first carry no TCP header; reassembly of
	// fragmented TCP is vanishingly rare on modern paths, so skip them.
	fragField := be.Uint16(data[6:8])
	if fragField&0x1fff != 0 {
		return parsedSkip
	}
	if len(data) < ihl {
		return parsedTruncated
	}
	pkt.IPv6 = false
	copy(pkt.SrcIP[:12], v4Prefix[:])
	copy(pkt.SrcIP[12:], data[12:16])
	copy(pkt.DstIP[:12], v4Prefix[:])
	copy(pkt.DstIP[12:], data[16:20])
	// The payload length comes from the IP total length, not the captured
	// bytes, so snaplen-truncated captures still measure data correctly.
	return parseTCP(data[ihl:], totalLen-ihl, pkt)
}

func parseIPv6(data []byte, pkt *Packet) parseResult {
	if len(data) < 40 {
		return parsedTruncated
	}
	if data[0]>>4 != 6 {
		return parsedSkip
	}
	payloadLen := int(be.Uint16(data[4:6]))
	next := data[6]
	copy(pkt.SrcIP[:], data[8:24])
	copy(pkt.DstIP[:], data[24:40])
	pkt.IPv6 = true
	rest := data[40:]
	remaining := payloadLen
	// Walk the extension header chain (hop-by-hop, routing, destination
	// options, first fragment).
	for hops := 0; hops < 8; hops++ {
		switch next {
		case 6: // TCP
			return parseTCP(rest, remaining, pkt)
		case 0, 43, 60: // hop-by-hop, routing, destination options
			if len(rest) < 8 {
				return parsedTruncated
			}
			extLen := 8 + int(rest[1])*8
			if len(rest) < extLen || remaining < extLen {
				return parsedTruncated
			}
			next = rest[0]
			rest = rest[extLen:]
			remaining -= extLen
		case 44: // fragment
			if len(rest) < 8 {
				return parsedTruncated
			}
			if be.Uint16(rest[2:4])&0xfff8 != 0 {
				return parsedSkip // non-first fragment: no TCP header
			}
			next = rest[0]
			rest = rest[8:]
			remaining -= 8
		default:
			return parsedSkip
		}
	}
	return parsedSkip
}

// parseTCP decodes the TCP header. ipPayloadLen is the TCP segment length
// per the IP header (header + payload), which survives snaplen truncation.
func parseTCP(data []byte, ipPayloadLen int, pkt *Packet) parseResult {
	if len(data) < 20 {
		return parsedTruncated
	}
	dataOff := int(data[12]>>4) * 4
	if dataOff < 20 {
		return parsedSkip
	}
	if ipPayloadLen < dataOff {
		return parsedSkip
	}
	if len(data) < dataOff {
		return parsedTruncated
	}
	pkt.SrcPort = be.Uint16(data[0:2])
	pkt.DstPort = be.Uint16(data[2:4])
	pkt.Seq = be.Uint32(data[4:8])
	pkt.Ack = be.Uint32(data[8:12])
	pkt.Flags = data[13]
	pkt.Window = be.Uint16(data[14:16])
	pkt.PayloadLen = ipPayloadLen - dataOff
	if opts := data[20:dataOff]; !timestampsOnly(opts, &pkt.Opt) {
		pkt.Opt = TCPOptions{}
		parseTCPOptions(opts, &pkt.Opt)
	}
	return parsedTCP
}

// timestampsOnly is the option fast path: when opts is a 12-byte area
// holding one timestamps option and two NOPs, it fills out from two
// 32-bit loads and reports true. Two layouts qualify: NOP NOP TS, RFC
// 7323 Appendix A's, which Linux and the BSDs send on every established
// segment, and TS NOP NOP, which AppendFrame writes. Any other area is
// left to parseTCPOptions, which decodes these two identically (pinned
// by FuzzTCPOptions). The body stays within the inliner's budget.
func timestampsOnly(opts []byte, out *TCPOptions) bool {
	if len(opts) != 12 {
		return false
	}
	switch head := be.Uint32(opts); {
	case head == 0x0101080a: // NOP NOP TS
		*out = TCPOptions{TSVal: be.Uint32(opts[4:]), TSEcr: be.Uint32(opts[8:]), HasTS: true}
	case head>>16|uint32(opts[10])<<24|uint32(opts[11])<<16 == 0x0101080a:
		// TS NOP NOP: the trailing NOP pair moved ahead of the kind and
		// length bytes forms the same word.
		*out = TCPOptions{TSVal: be.Uint32(opts[2:]), TSEcr: be.Uint32(opts[6:]), HasTS: true}
	default:
		return false
	}
	return true
}

// parseTCPOptions walks the option area; malformed options end the walk
// (everything parsed so far is kept).
func parseTCPOptions(opts []byte, out *TCPOptions) {
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case 0: // end of options
			return
		case 1: // NOP
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 {
			return
		}
		length := int(opts[1])
		if length < 2 || length > len(opts) {
			return
		}
		body := opts[2:length]
		switch kind {
		case 2: // MSS
			if len(body) == 2 {
				out.MSS = be.Uint16(body)
				out.HasMSS = true
			}
		case 3: // window scale
			if len(body) == 1 {
				out.WScale = body[0]
				out.HasWScale = true
			}
		case 4: // SACK permitted
			out.SackPermitted = true
		case 5: // SACK blocks
			for i := 0; i+8 <= len(body) && out.SackCount < maxSackBlocks; i += 8 {
				out.Sack[out.SackCount] = SackBlock{
					Start: be.Uint32(body[i : i+4]),
					End:   be.Uint32(body[i+4 : i+8]),
				}
				out.SackCount++
			}
		case 8: // timestamps
			if len(body) == 8 {
				out.TSVal = be.Uint32(body[0:4])
				out.TSEcr = be.Uint32(body[4:8])
				out.HasTS = true
			}
		}
		opts = opts[length:]
	}
}
