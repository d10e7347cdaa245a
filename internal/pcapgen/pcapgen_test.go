package pcapgen

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/pcap"
)

// TestDeterministic: identical specs must produce byte-identical captures
// and identical direct results.
func TestDeterministic(t *testing.T) {
	specs := []ServerSpec{{Algorithm: "CUBIC2", Seed: 5}, {Algorithm: "RENO", Seed: 6}}
	var a, b bytes.Buffer
	resA, err := Generate(&a, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Generate(&b, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same specs produced different capture bytes")
	}
	for i := range resA {
		if resA[i].Valid != resB[i].Valid || resA[i].Wmax != resB[i].Wmax {
			t.Fatalf("direct results diverged: %+v vs %+v", resA[i], resB[i])
		}
	}
}

// TestCaptureShape decodes a generated capture and checks the wire-level
// structure: per-spec addressing, handshakes with the negotiated MSS,
// monotonic timestamps, and snaplen truncation with intact lengths.
func TestCaptureShape(t *testing.T) {
	var buf bytes.Buffer
	results, err := Generate(&buf, []ServerSpec{{Algorithm: "BIC", Seed: 9}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Valid {
		t.Fatalf("direct gathering invalid: %s", results[0].Reason)
	}
	r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pkt pcap.Packet
	var syns, dataPkts int
	lastTime := int64(0)
	conns := map[uint16]bool{}
	for {
		err := r.Next(&pkt)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ts := pkt.UnixNano; ts < lastTime {
			t.Fatalf("timestamps went backwards at %d", ts)
		} else {
			lastTime = ts
		}
		if pkt.SYN() && !pkt.ACK() {
			syns++
			conns[pkt.SrcPort] = true
			if !pkt.Opt.HasMSS || int(pkt.Opt.MSS) != results[0].MSS {
				t.Fatalf("SYN mss option %d, negotiated %d", pkt.Opt.MSS, results[0].MSS)
			}
		}
		if pkt.PayloadLen > 0 && pkt.SrcPort == 80 {
			dataPkts++
			if pkt.PayloadLen != results[0].MSS {
				t.Fatalf("data payload %d, mss %d", pkt.PayloadLen, results[0].MSS)
			}
			if pkt.CapturedLen >= pkt.OrigLen {
				t.Fatal("data frames should be snaplen-truncated by default")
			}
		}
	}
	// One ladder walk at the default config: environments A and B.
	if syns != 2 || len(conns) != 2 {
		t.Fatalf("saw %d SYNs over %d connections, want 2 and 2", syns, len(conns))
	}
	if dataPkts == 0 {
		t.Fatal("no server data packets decoded")
	}
}

// TestGenerateErrors covers the spec validation paths.
func TestGenerateErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Generate(&buf, nil, Options{}); err == nil {
		t.Fatal("empty spec list must error")
	}
	if _, err := Generate(&buf, []ServerSpec{{}}, Options{}); err == nil {
		t.Fatal("spec without algorithm must error")
	}
	if _, err := Generate(&buf, []ServerSpec{{Algorithm: "RENO"}}, Options{Format: "nope"}); err == nil {
		t.Fatal("unknown format must error")
	}
}
