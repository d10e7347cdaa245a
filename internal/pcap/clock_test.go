package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactUnixNano is the reference clock: floor(ts * 1e9 / unitsPerSec)
// in exact integer arithmetic, saturated at math.MaxInt64.
func exactUnixNano(ts uint64, unitsPerSec *big.Int) int64 {
	ns := new(big.Int).SetUint64(ts)
	ns.Mul(ns, big.NewInt(1e9))
	ns.Quo(ns, unitsPerSec)
	if !ns.IsInt64() {
		return math.MaxInt64
	}
	return ns.Int64()
}

// clockFrame is the frame every record of the clock tests carries; its
// sequence number is the record's index.
func clockFrame(i int) []byte {
	return AppendFrame(nil, &FrameSpec{Src: testSrc, Dst: testDst, Seq: uint32(i), Flags: FlagACK})
}

// decodeClocks reads data through Next and through NextRaw and returns
// the UnixNano of every record, failing unless both paths agree.
func decodeClocks(t *testing.T, data []byte) []int64 {
	t.Helper()
	pkts, _ := readAll(t, data)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	var rec RawRecord
	for i := 0; ; i++ {
		if err := r.NextRaw(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if i >= len(pkts) || pkts[i].Seq != uint32(i) || pkts[i].UnixNano != rec.UnixNano {
			t.Fatalf("record %d: NextRaw and Next disagree", i)
		}
		got = append(got, rec.UnixNano)
	}
	if len(got) != len(pkts) {
		t.Fatalf("NextRaw read %d records, Next %d", len(got), len(pkts))
	}
	return got
}

// classicCapture writes a classic capture with the given magic, in the
// byte order that magic announces, one record per (sec, sub) stamp.
func classicCapture(magic uint32, stamps [][2]uint32) []byte {
	var bo binary.AppendByteOrder = binary.BigEndian
	if magic == magicMicrosSwapped || magic == magicNanosSwapped {
		bo = binary.LittleEndian
	}
	out := binary.BigEndian.AppendUint32(nil, magic)
	out = bo.AppendUint16(out, 2) // version 2.4
	out = bo.AppendUint16(out, 4)
	out = append(out, make([]byte, 8)...) // thiszone, sigfigs
	out = bo.AppendUint32(out, MaxSnapLen)
	out = bo.AppendUint32(out, LinkEthernet)
	for i, st := range stamps {
		frame := clockFrame(i)
		out = bo.AppendUint32(out, st[0])
		out = bo.AppendUint32(out, st[1])
		out = bo.AppendUint32(out, uint32(len(frame)))
		out = bo.AppendUint32(out, uint32(len(frame)))
		out = append(out, frame...)
	}
	return out
}

// ngBlock appends one pcapng block of the given type: its body, padded
// to four bytes, between the two length fields.
func ngBlock(out []byte, bo binary.AppendByteOrder, blockType uint32, body []byte) []byte {
	padded := append(body, make([]byte, -len(body)&3)...)
	total := uint32(12 + len(padded))
	out = bo.AppendUint32(out, blockType)
	out = bo.AppendUint32(out, total)
	out = append(out, padded...)
	return bo.AppendUint32(out, total)
}

// ngCapture writes a pcapng section in the given byte order whose one
// interface declares if_tsresol tsresol (none when omitted), one
// enhanced packet block per stamp, then, when spb is set, one simple
// packet block.
func ngCapture(bo binary.AppendByteOrder, tsresol []byte, stamps []uint64, spb bool) []byte {
	var shb []byte
	shb = bo.AppendUint32(shb, ngByteOrderMagic)
	shb = bo.AppendUint16(shb, 1)
	shb = bo.AppendUint16(shb, 0)
	shb = bo.AppendUint64(shb, math.MaxUint64)
	out := ngBlock(nil, bo, ngBlockSHB, shb)

	var idb []byte
	idb = bo.AppendUint16(idb, LinkEthernet)
	idb = bo.AppendUint16(idb, 0)
	idb = bo.AppendUint32(idb, 0)
	if tsresol != nil {
		idb = bo.AppendUint16(idb, 9)
		idb = bo.AppendUint16(idb, 1)
		idb = append(idb, tsresol[0], 0, 0, 0)
		idb = append(idb, 0, 0, 0, 0) // opt_endofopt
	}
	out = ngBlock(out, bo, ngBlockIDB, idb)

	for i, ts := range stamps {
		frame := clockFrame(i)
		var epb []byte
		epb = bo.AppendUint32(epb, 0)
		epb = bo.AppendUint32(epb, uint32(ts>>32))
		epb = bo.AppendUint32(epb, uint32(ts))
		epb = bo.AppendUint32(epb, uint32(len(frame)))
		epb = bo.AppendUint32(epb, uint32(len(frame)))
		out = ngBlock(out, bo, ngBlockEPB, append(epb, frame...))
	}
	if spb {
		frame := clockFrame(len(stamps))
		out = ngBlock(out, bo, ngBlockSPB, append(bo.AppendUint32(nil, uint32(len(frame))), frame...))
	}
	return out
}

// TestUnixNanoMatchesExact pins Packet.UnixNano, the clock the flow
// tracker runs on, to exact integer arithmetic for every timestamp
// encoding the decoder reads: both classic resolutions in both byte
// orders, pcapng with no if_tsresol and with every if_tsresol byte (10^-n
// and 2^-n s units for n in 0..127), stamps past the int64 nanosecond
// range (which saturate at math.MaxInt64), and the simple packet block,
// which has no timestamp and reads math.MinInt64.
func TestUnixNanoMatchesExact(t *testing.T) {
	for _, c := range []struct {
		magic          uint32
		perSec, maxSub uint32
	}{
		{magicMicros, 1e6, 999_999},
		{magicMicrosSwapped, 1e6, 999_999},
		{magicNanos, 1e9, 999_999_999},
		{magicNanosSwapped, 1e9, 999_999_999},
	} {
		stamps := [][2]uint32{{0, 0}, {1700000000, c.maxSub / 7}, {math.MaxUint32, c.maxSub}}
		got := decodeClocks(t, classicCapture(c.magic, stamps))
		for i, st := range stamps {
			want := exactUnixNano(uint64(st[0])*uint64(c.perSec)+uint64(st[1]), big.NewInt(int64(c.perSec)))
			if got[i] != want {
				t.Fatalf("classic magic %#x, stamp %v: UnixNano %d, want %d", c.magic, st, got[i], want)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	for _, bo := range []binary.AppendByteOrder{binary.LittleEndian, binary.BigEndian} {
		for resol := -1; resol <= 0xff; resol++ {
			var tsresol []byte
			units := big.NewInt(1e6) // the default: microseconds
			if resol >= 0 {
				tsresol = []byte{byte(resol)}
				if resol&0x80 != 0 {
					units = new(big.Int).Lsh(big.NewInt(1), uint(resol&0x7f))
				} else {
					units = new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(resol)), nil)
				}
			}
			stamps := []uint64{0, 1, math.MaxUint64, math.MaxInt64, math.MaxInt64 + 1,
				// At 2^-59 s units this fraction is 255701492.99... ns,
				// which a float64 conversion once rounded up by 1 ns.
				3<<59 | 147401875019888574}
			// The top and the first unit past the top of the int64 range.
			top := new(big.Int).Mul(big.NewInt(math.MaxInt64), units)
			top.Quo(top, big.NewInt(1e9))
			if top.IsUint64() {
				stamps = append(stamps, top.Uint64())
				if top.Uint64() < math.MaxUint64 {
					stamps = append(stamps, top.Uint64()+1)
				}
			}
			for i := 0; i < 64; i++ {
				stamps = append(stamps, rng.Uint64()>>uint(rng.Intn(64)))
			}
			got := decodeClocks(t, ngCapture(bo, tsresol, stamps, true))
			for i, ts := range stamps {
				if want := exactUnixNano(ts, units); got[i] != want {
					t.Fatalf("pcapng %v if_tsresol %#x, stamp %d: UnixNano %d, want %d", bo, resol, ts, got[i], want)
				}
			}
			if spb := got[len(stamps)]; spb != math.MinInt64 {
				t.Fatalf("pcapng %v: simple packet block UnixNano %d, want math.MinInt64", bo, spb)
			}
		}
	}
}
