package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pcapgen"
	"repro/internal/probe"
)

// streamEvents POSTs capture bytes to /v1/pcap/stream and decodes the
// NDJSON response.
func streamEvents(t *testing.T, url string, body []byte) (*http.Response, []StreamEvent) {
	t.Helper()
	resp, err := http.Post(url+"/v1/pcap/stream", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, events
}

// TestPcapStreamEndToEnd streams a multi-flow capture and receives one
// NDJSON line per classified flow pair plus a final capture summary --
// the streaming mirror of TestPcapEndToEnd, with no job indirection.
func TestPcapStreamEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "CUBIC2", Confidence: 0.93})

	var capture bytes.Buffer
	if _, err := pcapgen.Generate(&capture, []pcapgen.ServerSpec{
		{Algorithm: "CUBIC2", Seed: 31},
		{Algorithm: "RENO", Seed: 32},
	}, pcapgen.Options{Probe: probe.Config{WmaxLadder: []int{64}}}); err != nil {
		t.Fatal(err)
	}

	resp, events := streamEvents(t, ts.URL, capture.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	final := events[len(events)-1]
	if final.Capture == nil || final.Error != "" {
		t.Fatalf("final event: %+v", final)
	}
	if final.Capture.Flows != 4 || final.Capture.TCPSegments == 0 {
		t.Fatalf("capture stats: %+v", *final.Capture)
	}
	servers := map[string]bool{}
	paired := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Flow == nil {
			t.Fatalf("non-flow event before the summary: %+v", ev)
		}
		if !ev.Flow.Valid || ev.Flow.Label != "CUBIC2" {
			t.Fatalf("flow not classified: %+v", ev.Flow)
		}
		if ev.Flow.Flow != nil && ev.Flow.Flow.ClientB != "" {
			paired++
		}
		servers[ev.Flow.Server] = true
	}
	if len(servers) != 2 || paired != 2 {
		t.Fatalf("streamed %d servers, %d paired results, want 2 and 2", len(servers), paired)
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Stream.Requests != 1 || snap.Stream.Errors != 0 || snap.Stream.Active != 0 {
		t.Fatalf("stream metrics: %+v", snap.Stream)
	}
	if snap.Stream.Bytes != int64(capture.Len()) || snap.Stream.Flows != 4 || snap.Stream.LiveHighWater == 0 {
		t.Fatalf("stream pipeline metrics: %+v", snap.Stream)
	}
	if snap.Stream.LiveFlows != 0 {
		t.Fatalf("live flows after stream end = %d, want 0", snap.Stream.LiveFlows)
	}
	if snap.Labels["CUBIC2"] != 2 {
		t.Fatalf("label counters: %+v", snap.Labels)
	}
}

// TestPcapStreamAcceptsPUT: `curl -T` and most streaming-upload clients
// send PUT, so the endpoint must accept it identically to POST (the
// README's tcpdump pipeline example depends on this).
func TestPcapStreamAcceptsPUT(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "CUBIC2", Confidence: 0.93})

	var capture bytes.Buffer
	if _, err := pcapgen.Generate(&capture, []pcapgen.ServerSpec{
		{Algorithm: "CUBIC2", Seed: 31},
	}, pcapgen.Options{Probe: probe.Config{WmaxLadder: []int{64}}}); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/pcap/stream", bytes.NewReader(capture.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var final StreamEvent
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatal(err)
	}
	if final.Capture == nil || final.Error != "" || final.Capture.Flows != 2 {
		t.Fatalf("final event: %+v", final)
	}
}

// TestPcapStreamGarbage: an undecodable stream still answers 200 (the
// header is committed before the first byte decodes) but the final
// event carries the decode error.
func TestPcapStreamGarbage(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "X", Confidence: 1})
	resp, events := streamEvents(t, ts.URL, []byte("this is not a capture, not even close"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	final := events[len(events)-1]
	if final.Error == "" {
		t.Fatalf("garbage stream reported no error: %+v", final)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Stream.Errors != 1 {
		t.Fatalf("stream error counter: %+v", snap.Stream)
	}
}

// TestPcapStreamDecodeErrorMidUpload: when decoding fails while the body
// is still arriving, the final event reports the decoder's error, not
// an error from the unread rest of the upload.
func TestPcapStreamDecodeErrorMidUpload(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "X", Confidence: 1})
	// A valid classic header, a record whose caplen 100 exceeds its
	// origlen 50, then far more padding than the decoder buffers.
	body := []byte{0xd4, 0xc3, 0xb2, 0xa1, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 1, 0, 0, 0}
	body = binary.LittleEndian.AppendUint32(body, 1700000000)
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 100)
	body = binary.LittleEndian.AppendUint32(body, 50)
	body = append(body, make([]byte, 8<<20)...)
	resp, events := streamEvents(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	final := events[len(events)-1]
	if !strings.Contains(final.Error, "exceeds original length") {
		t.Fatalf("final event error %q, want the decoder's caplen error", final.Error)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Stream.Errors != 1 {
		t.Fatalf("stream error counter: %+v", snap.Stream)
	}
}

func TestPcapStreamRejectsUnknownModel(t *testing.T) {
	_, ts := newTestService(t, Config{}, &fakeClassifier{Label: "X", Confidence: 1})
	resp, err := http.Post(ts.URL+"/v1/pcap/stream?model=nope", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}
}

// TestPcapStreamShedsPastBound holds MaxStreams uploads open and expects
// the next one to shed with 429 instead of queueing.
func TestPcapStreamShedsPastBound(t *testing.T) {
	s, ts := newTestService(t, Config{MaxStreams: 1}, &fakeClassifier{Label: "X", Confidence: 1})

	pr, pw := io.Pipe()
	// Unblock the held stream no matter how the test exits, or the
	// server's connection drain in cleanup would hang.
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/pcap/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		firstDone <- err
	}()

	// Wait until the first stream provably holds the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.streamActive.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first stream never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/pcap/stream", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	pw.Close()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Stream.Rejected != 1 {
		t.Fatalf("rejected counter: %+v", snap.Stream)
	}
}

// TestPcapStreamClientCancelNoLeak cancels an in-flight stream upload
// mid-body and verifies the pipeline unwinds: no goroutines remain, the
// stream slot frees, and the live-flow gauge returns to zero.
func TestPcapStreamClientCancelNoLeak(t *testing.T) {
	s, ts := newTestService(t, Config{MaxStreams: 1}, &fakeClassifier{Label: "X", Confidence: 1})

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		pr, pw := io.Pipe()
		t.Cleanup(func() { cancel(); pw.Close() })
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/pcap/stream", pr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // abort races the copy
				resp.Body.Close()
			}
		}()
		// A valid header plus a partial record keeps the pipeline parked
		// mid-decode when the cancel lands.
		hdr := []byte{0xd4, 0xc3, 0xb2, 0xa1, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 1, 0, 0, 0}
		if _, err := pw.Write(hdr); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		cancel()
		pw.CloseWithError(context.Canceled)
		<-done
	}

	// The client can see its response end before the handler returns and
	// frees the slot, so wait (bounded) for the active gauge to drain.
	var snap MetricsSnapshot
	for deadline := time.Now().Add(5 * time.Second); ; {
		getJSON(t, ts.URL+"/metrics", &snap)
		if snap.Stream.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream slot still held after cancel: %+v", snap.Stream)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The slot must be free again: a normal request succeeds immediately.
	resp, err := http.Post(ts.URL+"/v1/pcap/stream", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slot not released: status %d", resp.StatusCode)
	}

	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Stream.Active != 0 || snap.Stream.LiveFlows != 0 {
		t.Fatalf("stream state leaked: %+v", snap.Stream)
	}
	if s.metrics.streamRequests.Load() < 4 {
		t.Fatalf("requests counted: %+v", snap.Stream)
	}

	// Goroutines settle back to (about) the baseline; generous slack for
	// the HTTP keep-alive pool.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: before %d, after %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
