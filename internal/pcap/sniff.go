package pcap

import "encoding/binary"

// TupleSniff extracts the TCP 4-tuple from a raw frame without a full
// decode and returns a direction-normalized hash: both directions of a
// connection map to the same value, so a pipeline that shards packets
// by the hash keeps every flow on one worker. The sniff walks the same
// link/IP layers as the full parse but reads only addresses and ports.
//
// span is the frame's header span: the number of leading bytes covering
// the link, IP, and TCP headers, options included. The full parse never
// reads past it -- the payload length comes from the IP header, not the
// captured bytes -- so a sharding framer may hand workers
// data[:min(span, len(data))] and decode identically while skipping the
// payload copy (pinned by TestTupleSniffSpanPreservesParse). When the
// capture cut the frame before the TCP header-length byte, span falls
// back to len(data).
//
// ok is false when the frame has no reachable TCP 4-tuple. The sniff is
// deliberately laxer than the full parse in that case -- a frame the
// parse classifies as TCP always sniffs ok with the right tuple (pinned
// by TestTupleSniffAgreesWithParse), while a frame that sniffs ok may
// still fail the full parse; it then just lands on some shard and is
// counted skipped or truncated there.
func TupleSniff(linkType uint32, data []byte) (hash uint64, span int, ok bool) {
	orig := len(data)
	switch linkType {
	case LinkEthernet:
		if len(data) < 14 {
			return 0, 0, false
		}
		etherType := be.Uint16(data[12:14])
		data = data[14:]
		for tags := 0; tags < 2 && (etherType == 0x8100 || etherType == 0x88a8); tags++ {
			if len(data) < 4 {
				return 0, 0, false
			}
			etherType = be.Uint16(data[2:4])
			data = data[4:]
		}
		switch etherType {
		case 0x0800:
			return sniffV4(data, orig-len(data))
		case 0x86dd:
			return sniffV6(data, orig-len(data))
		}
		return 0, 0, false
	case LinkNull, LinkLoop:
		if len(data) < 4 {
			return 0, 0, false
		}
		famLE := binary.LittleEndian.Uint32(data[:4])
		famBE := be.Uint32(data[:4])
		data = data[4:]
		switch {
		case famLE == 2 || famBE == 2:
			return sniffV4(data, 4)
		case isV6Family(famLE) || isV6Family(famBE):
			return sniffV6(data, 4)
		}
		return 0, 0, false
	case LinkRaw:
		if len(data) < 1 {
			return 0, 0, false
		}
		switch data[0] >> 4 {
		case 4:
			return sniffV4(data, 0)
		case 6:
			return sniffV6(data, 0)
		}
		return 0, 0, false
	}
	return 0, 0, false
}

// sniffV4 hashes an IPv4 packet's 4-tuple. base is the link-layer byte
// count preceding data; the returned span is relative to the whole frame.
func sniffV4(data []byte, base int) (uint64, int, bool) {
	if len(data) < 20 || data[0]>>4 != 4 {
		return 0, 0, false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 {
		return 0, 0, false
	}
	if data[9] != 6 { // not TCP
		return 0, 0, false
	}
	if be.Uint16(data[6:8])&0x1fff != 0 { // non-first fragment
		return 0, 0, false
	}
	if len(data) < ihl+4 { // need the TCP port words
		return 0, 0, false
	}
	tcp := data[ihl:]
	span := base + len(data)
	if len(tcp) >= 13 {
		if dataOff := int(tcp[12]>>4) * 4; dataOff >= 20 {
			span = base + ihl + dataOff
		}
	}
	return tupleHash(data[12:16], data[16:20], be.Uint16(tcp[0:2]), be.Uint16(tcp[2:4])), span, true
}

// sniffV6 hashes an IPv6 packet's 4-tuple, walking the extension chain
// the same way parseIPv6 does. base is as in sniffV4.
func sniffV6(data []byte, base int) (uint64, int, bool) {
	if len(data) < 40 || data[0]>>4 != 6 {
		return 0, 0, false
	}
	next := data[6]
	rest := data[40:]
	off := 40
	for hops := 0; hops < 8; hops++ {
		switch next {
		case 6: // TCP
			if len(rest) < 4 {
				return 0, 0, false
			}
			span := base + len(data)
			if len(rest) >= 13 {
				if dataOff := int(rest[12]>>4) * 4; dataOff >= 20 {
					span = base + off + dataOff
				}
			}
			return tupleHash(data[8:24], data[24:40], be.Uint16(rest[0:2]), be.Uint16(rest[2:4])), span, true
		case 0, 43, 60: // hop-by-hop, routing, destination options
			if len(rest) < 8 {
				return 0, 0, false
			}
			extLen := 8 + int(rest[1])*8
			if len(rest) < extLen {
				return 0, 0, false
			}
			next = rest[0]
			rest = rest[extLen:]
			off += extLen
		case 44: // fragment
			if len(rest) < 8 {
				return 0, 0, false
			}
			if be.Uint16(rest[2:4])&0xfff8 != 0 {
				return 0, 0, false // non-first fragment
			}
			next = rest[0]
			rest = rest[8:]
			off += 8
		default:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// tupleHash combines the two endpoints order-independently, so both
// packet directions hash identically, then runs a finalizer so shard
// selection by modulo sees well-mixed bits.
func tupleHash(srcIP, dstIP []byte, srcPort, dstPort uint16) uint64 {
	a := endpointHash(srcIP, srcPort)
	b := endpointHash(dstIP, dstPort)
	return mix64(a + b + (a^b)<<1)
}

// endpointHash is FNV-1a over the address bytes and port.
func endpointHash(ip []byte, port uint16) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range ip {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = (h ^ uint64(port&0xff)) * 1099511628211
	h = (h ^ uint64(port>>8)) * 1099511628211
	return h
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
