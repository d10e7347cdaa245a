package flow

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"repro/internal/pcap"
	"repro/internal/pcapgen"
	"repro/internal/probe"
)

// FuzzReassemble drives the decoder and the flow tracker end to end with
// arbitrary bytes under tight memory bounds: garbage must produce errors
// or empty results -- never a panic, a hang, or memory beyond the
// configured flow/round caps.
func FuzzReassemble(f *testing.F) {
	var seed bytes.Buffer
	if _, err := pcapgen.Generate(&seed, []pcapgen.ServerSpec{{Algorithm: "RENO", Seed: 3}},
		pcapgen.Options{Probe: probe.Config{WmaxLadder: []int{64}, MaxPreRounds: 16}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:80])
	f.Add([]byte{})
	f.Add(outOfRangeSeed(f, false))
	f.Add(outOfRangeSeed(f, true))

	cfg := Config{MaxFlows: 16, MaxRounds: 32, MaxEmitted: 64, DefaultRTT: 50 * time.Millisecond}
	f.Fuzz(func(t *testing.T, data []byte) {
		flows, stats, err := Reassemble(bytes.NewReader(data), cfg)
		if err != nil {
			_ = err.Error()
		}
		if len(flows) > cfg.MaxEmitted {
			t.Fatalf("emitted %d flows past the %d bound", len(flows), cfg.MaxEmitted)
		}
		for _, fl := range flows {
			if fl.Trace == nil {
				continue
			}
			if len(fl.Trace.Pre)+len(fl.Trace.Post) > cfg.MaxRounds {
				t.Fatalf("flow recorded %d rounds past the %d bound",
					len(fl.Trace.Pre)+len(fl.Trace.Post), cfg.MaxRounds)
			}
		}
		if stats.Classifiable > stats.Flows {
			t.Fatalf("inconsistent stats %+v", stats)
		}
		// Pairing must hold up on whatever came out of the tracker.
		if pairs := Pair(flows); len(pairs) > len(flows) {
			t.Fatalf("%d pairs from %d flows", len(pairs), len(flows))
		}
	})
}

// outOfRangeSeed is a pcapng capture whose timestamps leave the int64
// nanosecond range the tracker clock holds, which must saturate rather
// than wrap. By default the middle packet carries the largest
// microsecond timestamp (~580,000 years out). With seconds set, the
// interface declares one-second resolution, so every packet lands far
// past the range except the middle one, whose 2^63 reads as a negative
// Unix second: the clock then spans its whole range.
func outOfRangeSeed(f *testing.F, seconds bool) []byte {
	var buf bytes.Buffer
	if _, err := pcapgen.Generate(&buf, []pcapgen.ServerSpec{{Algorithm: "RENO", Seed: 3}}, pcapgen.Options{
		Format: "pcapng", Probe: probe.Config{WmaxLadder: []int{64}, MaxPreRounds: 16}}); err != nil {
		f.Fatal(err)
	}
	le := binary.LittleEndian
	data := buf.Bytes()
	const shbLen, idbLen = 28, 20
	if seconds {
		// Rebuild the interface block with if_tsresol = 2^-0 seconds.
		idb := append([]byte(nil), data[shbLen:shbLen+16]...)
		idb = le.AppendUint16(idb, 9)
		idb = le.AppendUint16(idb, 1)
		idb = append(idb, 0x80, 0, 0, 0, 0, 0, 0, 0) // value, pad, opt_endofopt
		idb = le.AppendUint32(idb, uint32(len(idb)+4))
		le.PutUint32(idb[4:8], uint32(len(idb)))
		data = append(append(append([]byte(nil), data[:shbLen]...), idb...), data[shbLen+idbLen:]...)
	}
	var blocks []int
	for off := shbLen + int(le.Uint32(data[shbLen+4:])); off+8 <= len(data); {
		blocks = append(blocks, off)
		off += int(le.Uint32(data[off+4 : off+8]))
	}
	ts := ^uint64(0)
	if seconds {
		ts = 1 << 63
	}
	mid := blocks[len(blocks)/2]
	le.PutUint32(data[mid+12:], uint32(ts>>32))
	le.PutUint32(data[mid+16:], uint32(ts))
	return data
}

// FuzzDecodeStats cross-checks that the decoder's counters account for
// every record it read, whatever the input.
func FuzzDecodeStats(f *testing.F) {
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf, pcap.LinkEthernet, 96)
	frame := pcap.AppendFrame(nil, &pcap.FrameSpec{
		Src:   netip.MustParseAddrPort("10.0.0.1:40000"),
		Dst:   netip.MustParseAddrPort("10.0.0.2:80"),
		Flags: pcap.FlagSYN,
	})
	_ = w.WritePacket(time.Unix(0, 0), len(frame), frame)
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := pcap.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var pkt pcap.Packet
		for {
			if err := r.Next(&pkt); err != nil {
				break
			}
		}
		s := r.Stats()
		if s.TCP+s.Skipped+s.Truncated != s.Packets {
			t.Fatalf("stats do not add up: %+v", s)
		}
	})
}
