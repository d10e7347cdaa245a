package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/netem"
	"repro/internal/pcapgen"
	"repro/internal/probe"
	"repro/internal/websim"
)

// uploadCapture POSTs raw capture bytes to /v1/pcap.
func uploadCapture(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/pcap", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPcapEndToEnd uploads a multi-flow synthetic capture, polls the job,
// and receives per-flow labels -- the acceptance path of the capture
// subsystem over HTTP.
func TestPcapEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "CUBIC2", Confidence: 0.93})

	// Two servers, two connections each (environments A and B).
	var capture bytes.Buffer
	if _, err := pcapgen.Generate(&capture, []pcapgen.ServerSpec{
		{Algorithm: "CUBIC2", Seed: 31},
		{Algorithm: "RENO", Seed: 32},
	}, pcapgen.Options{Probe: probe.Config{WmaxLadder: []int{64}}}); err != nil {
		t.Fatal(err)
	}

	resp, data := uploadCapture(t, ts.URL, capture.Bytes())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var acc PcapAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Total != 2 {
		t.Fatalf("accepted %d pairs, want 2: %s", acc.Total, data)
	}
	if acc.Stats.Flows != 4 || acc.Stats.TCPSegments == 0 {
		t.Fatalf("capture stats: %+v", acc.Stats)
	}

	st := pollJob(t, ts.URL, acc.JobID, 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if len(st.Results) != 2 || st.Completed != 2 {
		t.Fatalf("results: %+v", st)
	}
	servers := map[string]bool{}
	for _, r := range st.Results {
		if !r.Valid || r.Label != "CUBIC2" {
			t.Fatalf("flow result not classified: %+v", r)
		}
		if r.Flow == nil || r.Flow.ClientA == "" || r.Flow.ClientB == "" || r.Flow.Packets == 0 {
			t.Fatalf("flow metadata missing: %+v", r.Flow)
		}
		if r.Flow.RTTMs != 1000 {
			t.Fatalf("flow rtt %v, want the 1s environment-A RTT", r.Flow.RTTMs)
		}
		servers[r.Server] = true
	}
	if len(servers) != 2 {
		t.Fatalf("results cover %d servers, want 2", len(servers))
	}

	// Ingest counters surfaced on /metrics.
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Pcap.Uploads != 1 || snap.Pcap.FlowsSeen != 4 || snap.Pcap.Classifiable == 0 || snap.Pcap.DecodeErrors != 0 {
		t.Fatalf("pcap metrics: %+v", snap.Pcap)
	}
	if snap.Labels["CUBIC2"] != 2 {
		t.Fatalf("label counters: %+v", snap.Labels)
	}
}

// TestPcapJobMatchesIdentifyCapture: a /v1/pcap job's results are
// flow.IdentifyCapture's pairs index by index -- same server, clients,
// validity, reason and features -- over a capture that mixes paired
// servers, a lossy path and a small-page server whose one flow is invalid
// and unpaired.
func TestPcapJobMatchesIdentifyCapture(t *testing.T) {
	model := &fakeClassifier{Label: "CUBIC2", Confidence: 0.93}
	_, ts := newTestService(t, Config{}, model)

	smallPage := websim.Testbed("BIC")
	smallPage.Name = "small-page"
	smallPage.DefaultPageBytes, smallPage.LongestPageBytes = 8000, 0
	var capture bytes.Buffer
	if _, err := pcapgen.Generate(&capture, []pcapgen.ServerSpec{
		{Algorithm: "RENO", Seed: 41},
		{Server: smallPage, Seed: 42},
		{Algorithm: "CUBIC2", Seed: 43, Cond: netem.Condition{MeanRTT: 80 * time.Millisecond, LossRate: 0.02}},
		{Algorithm: "VEGAS", Seed: 44},
		{Algorithm: "HTCP", Seed: 45},
	}, pcapgen.Options{Probe: probe.Config{WmaxLadder: []int{64}}}); err != nil {
		t.Fatal(err)
	}
	want, _, err := flow.IdentifyCapture(bytes.NewReader(capture.Bytes()), model, flow.IdentifyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	resp, data := uploadCapture(t, ts.URL, capture.Bytes())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var acc PcapAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, ts.URL, acc.JobID, 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if len(st.Results) != len(want) {
		t.Fatalf("job has %d results, IdentifyCapture %d pairs", len(st.Results), len(want))
	}
	invalid := 0
	for i, w := range want {
		got := st.Results[i]
		var clientB string
		if w.B != nil {
			clientB = w.B.Client
		}
		if got.Flow == nil || got.Server != w.A.Server || got.Flow.ClientA != w.A.Client || got.Flow.ClientB != clientB {
			t.Fatalf("result %d is %s %+v, IdentifyCapture pair %d is %s %s/%s", i, got.Server, got.Flow, i, w.A.Server, w.A.Client, clientB)
		}
		if got.Valid != w.ID.Valid || got.Reason != string(w.ID.Reason) || got.Wmax != w.ID.Wmax {
			t.Fatalf("result %d: valid %v reason %q wmax %d, IdentifyCapture valid %v reason %q wmax %d",
				i, got.Valid, got.Reason, got.Wmax, w.ID.Valid, w.ID.Reason, w.ID.Wmax)
		}
		if wf := toResponse("", w.A.Server, w.ID).Features; !reflect.DeepEqual(got.Features, wf) {
			t.Fatalf("result %d: features %v, IdentifyCapture %v", i, got.Features, wf)
		}
		if !w.ID.Valid {
			invalid++
		}
	}
	if invalid == 0 || invalid == len(want) {
		t.Fatalf("%d of %d pairs invalid: the capture must mix valid and invalid pairs", invalid, len(want))
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "X", Confidence: 1})

	resp, data := uploadCapture(t, ts.URL, []byte("this is not a capture, not even close"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: status %d: %s", resp.StatusCode, data)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Pcap.DecodeErrors != 1 {
		t.Fatalf("decode errors: %+v", snap.Pcap)
	}
}

func TestPcapRejectsUnknownModel(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "X", Confidence: 1})
	resp, err := http.Post(ts.URL+"/v1/pcap?model=nope", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}
}

func TestPcapEmptyCapture(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "X", Confidence: 1})
	// A structurally valid pcap header with zero records decodes cleanly
	// but holds no flows.
	hdr := []byte{0xd4, 0xc3, 0xb2, 0xa1, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 1, 0, 0, 0}
	resp, data := uploadCapture(t, ts.URL, hdr)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty capture: status %d: %s", resp.StatusCode, data)
	}
}
