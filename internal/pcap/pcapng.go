package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// pcapng block types.
const (
	ngBlockIDB = 0x00000001 // interface description
	ngBlockSPB = 0x00000003 // simple packet
	ngBlockEPB = 0x00000006 // enhanced packet
)

// ngByteOrderMagic is the section byte-order marker inside an SHB.
const ngByteOrderMagic = 0x1a2b3c4d

// maxNGBlock bounds one pcapng block body: a packet plus generous room
// for options.
const maxNGBlock = MaxSnapLen + 4096

// maxNGInterfaces bounds the per-section interface table so a crafted
// stream of IDBs cannot grow memory without bound.
const maxNGInterfaces = 256

// nextNG reads one pcapng block; it returns (frame, linkType, nil) for a
// packet block, (nil, 0, nil) for a non-packet block, and io.EOF at the
// clean end of the stream.
func (r *Reader) nextNG(pkt *Packet) ([]byte, uint32, error) {
	hdr, err := r.take(8)
	if err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("pcapng: truncated block header: %w", noEOF(err))
	}
	// An SHB starts a new section whose endianness is only known from the
	// byte-order magic that follows, so its length field is handed over
	// raw (the type is palindromic, readable in either order).
	if binary.BigEndian.Uint32(hdr[0:4]) == ngBlockSHB {
		return nil, 0, r.readSHB(binary.BigEndian.Uint32(hdr[4:8]))
	}
	blockType := r.bo.Uint32(hdr[0:4])
	total := r.bo.Uint32(hdr[4:8])
	if total < 12 || total%4 != 0 || total > maxNGBlock {
		return nil, 0, fmt.Errorf("pcapng: block length %d out of range", total)
	}
	body, err := r.take(int(total) - 8)
	if err != nil {
		return nil, 0, fmt.Errorf("pcapng: truncated block body: %w", noEOF(err))
	}
	if trailer := r.bo.Uint32(body[len(body)-4:]); trailer != total {
		return nil, 0, fmt.Errorf("pcapng: block trailing length %d != %d", trailer, total)
	}
	body = body[:len(body)-4]
	switch blockType {
	case ngBlockIDB:
		return nil, 0, r.readIDB(body)
	case ngBlockEPB:
		return r.readEPB(body, pkt)
	case ngBlockSPB:
		return r.readSPB(body, pkt)
	default:
		return nil, 0, nil // name resolution, statistics, custom: skip
	}
}

// readSHB finishes parsing a section header block whose type and length
// were already taken; lenBE is the length field read big-endian, which
// the byte-order magic that follows may swap.
func (r *Reader) readSHB(lenBE uint32) error {
	magic, err := r.take(4)
	if err != nil {
		return fmt.Errorf("pcapng: truncated section header: %w", noEOF(err))
	}
	total := lenBE
	switch m := binary.BigEndian.Uint32(magic); m {
	case ngByteOrderMagic:
		r.bo = bigEndian
	case 0x4d3c2b1a:
		r.bo = littleEndian
		total = bits.ReverseBytes32(lenBE)
	default:
		return fmt.Errorf("pcapng: bad byte-order magic %#x", m)
	}
	if total < 28 || total%4 != 0 || total > maxNGBlock {
		return fmt.Errorf("pcapng: section header length %d out of range", total)
	}
	body, err := r.take(int(total) - 12)
	if err != nil {
		return fmt.Errorf("pcapng: truncated section header: %w", noEOF(err))
	}
	if trailer := r.bo.Uint32(body[len(body)-4:]); trailer != total {
		return fmt.Errorf("pcapng: section header trailing length %d != %d", trailer, total)
	}
	if major := r.bo.Uint16(body[0:2]); major != 1 {
		return fmt.Errorf("pcapng: unsupported version %d.%d", major, r.bo.Uint16(body[2:4]))
	}
	r.ifaces = r.ifaces[:0]
	r.sections++
	return nil
}

// readIDB parses an interface description block body (trailer stripped).
func (r *Reader) readIDB(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcapng: interface block too short (%d bytes)", len(body))
	}
	if len(r.ifaces) >= maxNGInterfaces {
		return fmt.Errorf("pcapng: more than %d interfaces in one section", maxNGInterfaces)
	}
	iface := ngIface{
		linkType: uint32(r.bo.Uint16(body[0:2])),
		snapLen:  r.bo.Uint32(body[4:8]),
		tsPow10:  6, // default resolution: microseconds
		tsPow2:   -1,
	}
	// Walk options for if_tsresol (code 9).
	opts := body[8:]
	for len(opts) >= 4 {
		code := r.bo.Uint16(opts[0:2])
		olen := int(r.bo.Uint16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if 4+padded > len(opts) {
			break // malformed options: keep what we have
		}
		if code == 0 {
			break
		}
		if code == 9 && olen == 1 {
			v := opts[4]
			if v&0x80 != 0 {
				iface.tsPow2 = int(v & 0x7f)
				iface.tsPow10 = -1
			} else if int(v) <= 18 {
				iface.tsPow10 = int(v)
			}
		}
		opts = opts[4+padded:]
	}
	r.ifaces = append(r.ifaces, iface)
	return nil
}

// readEPB parses an enhanced packet block body (trailer stripped).
func (r *Reader) readEPB(body []byte, pkt *Packet) ([]byte, uint32, error) {
	if len(body) < 20 {
		return nil, 0, fmt.Errorf("pcapng: packet block too short (%d bytes)", len(body))
	}
	ifID := r.bo.Uint32(body[0:4])
	if int(ifID) >= len(r.ifaces) {
		return nil, 0, fmt.Errorf("pcapng: packet references undeclared interface %d", ifID)
	}
	iface := r.ifaces[ifID]
	ts := uint64(r.bo.Uint32(body[4:8]))<<32 | uint64(r.bo.Uint32(body[8:12]))
	capLen := r.bo.Uint32(body[12:16])
	origLen := r.bo.Uint32(body[16:20])
	if capLen > MaxSnapLen || int(capLen) > len(body)-20 {
		return nil, 0, fmt.Errorf("pcapng: packet capture length %d out of range", capLen)
	}
	if capLen > origLen {
		return nil, 0, fmt.Errorf("pcapng: packet capture length %d exceeds original length %d", capLen, origLen)
	}
	pkt.Time = ngTime(ts, iface)
	pkt.CapturedLen = int(capLen)
	pkt.OrigLen = int(origLen)
	return body[20 : 20+capLen], iface.linkType, nil
}

// readSPB parses a simple packet block body (trailer stripped): only the
// original length is recorded; the captured length is the lesser of the
// interface snaplen and the original length. SPBs carry no timestamp.
func (r *Reader) readSPB(body []byte, pkt *Packet) ([]byte, uint32, error) {
	if len(r.ifaces) == 0 {
		return nil, 0, fmt.Errorf("pcapng: simple packet block before any interface block")
	}
	if len(body) < 4 {
		return nil, 0, fmt.Errorf("pcapng: simple packet block too short (%d bytes)", len(body))
	}
	iface := r.ifaces[0]
	origLen := r.bo.Uint32(body[0:4])
	capLen := origLen
	if iface.snapLen > 0 && capLen > iface.snapLen {
		capLen = iface.snapLen
	}
	if capLen > MaxSnapLen || int(capLen) > len(body)-4 {
		return nil, 0, fmt.Errorf("pcapng: simple packet length %d out of range", capLen)
	}
	pkt.Time = time.Time{}
	pkt.CapturedLen = int(capLen)
	pkt.OrigLen = int(origLen)
	return body[4 : 4+capLen], iface.linkType, nil
}

// ngTime converts a pcapng timestamp in the interface's units to a
// time.Time, exactly (no float math).
func ngTime(ts uint64, iface ngIface) time.Time {
	if iface.tsPow2 >= 0 {
		n := uint(iface.tsPow2)
		if n > 63 {
			n = 63
		}
		sec := ts >> n
		frac := ts & (1<<n - 1)
		// frac / 2^n seconds in nanoseconds, without overflow for n <= 63.
		nanos := uint64(0)
		if n <= 30 {
			nanos = frac * 1_000_000_000 >> n
		} else {
			nanos = uint64(float64(frac) / float64(uint64(1)<<n) * 1e9)
		}
		return time.Unix(int64(sec), int64(nanos)).UTC()
	}
	pow10 := iface.tsPow10
	units := uint64(1)
	for i := 0; i < pow10 && i < 19; i++ {
		units *= 10
	}
	sec := ts / units
	rem := ts % units
	var nanos uint64
	if pow10 <= 9 {
		mult := uint64(1)
		for i := pow10; i < 9; i++ {
			mult *= 10
		}
		nanos = rem * mult
	} else {
		div := uint64(1)
		for i := 9; i < pow10; i++ {
			div *= 10
		}
		nanos = rem / div
	}
	return time.Unix(int64(sec), int64(nanos)).UTC()
}
