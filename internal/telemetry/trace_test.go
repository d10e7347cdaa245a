package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestTraceIDRoundTrip pins the wire rendering: 16 lowercase hex digits
// that parse back to the same ID, and rejection of everything else.
func TestTraceIDRoundTrip(t *testing.T) {
	f := NewFlight(FlightConfig{})
	for i := 0; i < 100; i++ {
		id := f.Mint()
		if id == 0 {
			t.Fatal("minted the zero (no-trace) ID")
		}
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("minted ID renders as %q, want 16 hex digits", s)
		}
		back, ok := ParseTraceID(s)
		if !ok || back != id {
			t.Fatalf("round trip %q: got %v ok=%v, want %v", s, back, ok, id)
		}
	}
	for _, bad := range []string{"", "abc", "000000000000000g", "0000000000000000", "00000000000000001"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
	if HashTraceID("req-a") == HashTraceID("req-b") {
		t.Error("distinct request IDs hashed to one trace ID")
	}
	if HashTraceID("req-a") != HashTraceID("req-a") {
		t.Error("HashTraceID is not deterministic")
	}
}

// TestFlightRetainsAndAssembles pins the happy path end to end: spans
// recorded under an ID, Finish with a kept outcome, and the span tree
// readable back as soon as Finish returns, with names, kinds, and chronological order.
func TestFlightRetainsAndAssembles(t *testing.T) {
	f := NewFlight(FlightConfig{SampleN: -1}) // only outcome/slow retention

	id := f.Mint()
	start := time.Now()
	var tm StageTimings
	tm[StageGather] = 3 * time.Millisecond
	tm[StageFeature] = 1 * time.Millisecond
	tm[StageClassify] = 2 * time.Millisecond
	f.StageSpans(id, start, &tm, 7)
	f.Event(id, EventUnsure, 420)

	f.Finish(TraceDone{
		ID: id, RequestID: id.String(), Route: "POST /v1/identify",
		Outcome: OutcomeUnsure, Status: 200,
		Start: start, Duration: 6 * time.Millisecond,
	})

	tr, ok := f.Get(id)
	if !ok {
		t.Fatal("UNSURE trace not retained")
	}
	if tr.Retained != RetainOutcome {
		t.Fatalf("retained reason %q, want %q", tr.Retained, RetainOutcome)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("recovered %d spans, want 4: %+v", len(tr.Spans), tr.Spans)
	}
	names := map[string]bool{}
	for i, sp := range tr.Spans {
		names[sp.Kind+"/"+sp.Name] = true
		if i > 0 && sp.StartUs < tr.Spans[i-1].StartUs {
			t.Fatalf("spans out of order at %d: %+v", i, tr.Spans)
		}
	}
	for _, want := range []string{"stage/gather", "stage/feature", "stage/classify", "event/unsure"} {
		if !names[want] {
			t.Errorf("span %s missing from %v", want, names)
		}
	}

	// Lookup resolves both the hex key and an arbitrary request ID string
	// via the hash derivation.
	if _, ok := f.Lookup(id.String()); !ok {
		t.Error("Lookup by hex rendering failed")
	}
	if _, ok := f.Lookup("no-such-trace"); ok {
		t.Error("Lookup invented a trace")
	}
}

// TestTailSamplingProperty is the sampling property pin: every non-OK
// outcome is retained regardless of rate, slow traces are retained
// regardless of outcome, and normal traffic survives exactly when the
// exported Sampled rule says so -- bit-for-bit reproducible across two
// recorders.
func TestTailSamplingProperty(t *testing.T) {
	const n = 400
	mk := func() *Flight {
		return NewFlight(FlightConfig{SampleN: 8, Slow: 50 * time.Millisecond, Retain: 2 * n})
	}
	a, b := mk(), mk()

	outcomes := []Outcome{OutcomeOK, OutcomeUnsure, OutcomeSpecial, OutcomeInvalid, OutcomeError}
	start := time.Unix(1700000000, 0)
	for i := 0; i < n; i++ {
		id := a.Mint() // same seq on both recorders mints the same IDs
		if got := b.Mint(); got != id {
			t.Fatalf("mint diverged at %d: %v vs %v", i, id, got)
		}
		d := TraceDone{
			ID: id, Route: "POST /v1/identify", Outcome: outcomes[i%len(outcomes)],
			Start: start, Duration: time.Duration(i%100) * time.Millisecond,
		}
		a.Finish(d)
		b.Finish(d)

		wantKeep, wantReason := false, ""
		switch {
		case d.Outcome != OutcomeOK:
			wantKeep, wantReason = true, RetainOutcome
		case d.Duration >= 50*time.Millisecond:
			wantKeep, wantReason = true, RetainSlow
		case Sampled(id, 8):
			wantKeep, wantReason = true, RetainSampled
		}
		ta, oka := a.Get(id)
		tb, okb := b.Get(id)
		if oka != wantKeep {
			t.Fatalf("trace %d (outcome %v, %v): retained=%v want %v", i, d.Outcome, d.Duration, oka, wantKeep)
		}
		if oka != okb || (oka && ta.Retained != tb.Retained) {
			t.Fatalf("trace %d: recorders diverged (%v/%v)", i, oka, okb)
		}
		if oka && ta.Retained != wantReason {
			t.Fatalf("trace %d: reason %q want %q", i, ta.Retained, wantReason)
		}
	}

	st := a.Stats()
	if st.Finished != n {
		t.Errorf("finished %d, want %d", st.Finished, n)
	}
	if st.Retained+st.Dropped != st.Finished {
		t.Errorf("accounting does not balance: %+v", st)
	}
	// SampleN 8 over well-mixed IDs keeps some but nowhere near all of the
	// normal fast traffic.
	if st.Dropped == 0 {
		t.Error("no normal traffic was dropped; sampling is vacuous")
	}
	if st.Retained <= int64(4*n/5) {
		// every non-OK (4/5 of traffic) is kept; strictly more means slow
		// and sampled retention fired too.
		t.Errorf("retained %d, want > %d (outcome floor)", st.Retained, 4*n/5)
	}
}

// TestFlightConcurrentHammer is the -race patrol: many goroutines write
// spans into a deliberately tiny ring (forcing continual wraparound) while
// others Finish, List, Lookup, and read Stats concurrently. The test
// asserts only invariants -- no torn reads surface as foreign spans, the
// store honors its bound, every kept trace is retained -- because under
// wraparound span loss is the documented trade.
func TestFlightConcurrentHammer(t *testing.T) {
	f := NewFlight(FlightConfig{SampleN: 1, Retain: 32, slots: 64})

	const (
		writers = 8
		rounds  = 200
	)
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < writers; g++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for r := 0; r < rounds; r++ {
				id := f.Mint()
				start := time.Now()
				f.Span(id, StageGather, start, time.Microsecond, uint64(r))
				f.Event(id, EventCacheMiss, 0)
				f.Event(id, EventShardAssign, uint64(r))
				f.Finish(TraceDone{
					ID: id, Route: "hammer", Outcome: OutcomeOK,
					Start: start, Duration: time.Since(start),
				})
			}
		}()
	}

	// Readers: list/filter/lookup/stats race the writers and collector.
	for g := 0; g < 3; g++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range f.List(TraceFilter{Route: "hammer", Limit: 10}) {
					tr, ok := f.Lookup(s.ID)
					if ok && tr.Route != "hammer" {
						t.Errorf("lookup %s crossed traces: %+v", s.ID, tr)
						return
					}
				}
				_ = f.Stats()
			}
		}()
	}

	// Writers finish first, then the readers are released.
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	st := f.Stats()
	if st.Finished != writers*rounds {
		t.Errorf("finished %d, want %d", st.Finished, writers*rounds)
	}
	if st.Stored > 32 {
		t.Errorf("retained store holds %d traces, bound is 32", st.Stored)
	}
	// SampleN 1 keeps every trace, and a kept trace cannot be lost.
	if st.Retained != writers*rounds || st.Dropped != 0 {
		t.Errorf("retained %d and dropped %d, want every one of %d kept", st.Retained, st.Dropped, writers*rounds)
	}
	if st.Spans != writers*rounds*3 {
		t.Errorf("span counter %d, want %d", st.Spans, writers*rounds*3)
	}
}

// TestFlightStoreReplacesByID pins the async-job re-finish contract: a
// second Finish of the same ID replaces the stored trace in place (the
// fuller job-completion scan wins) without consuming extra store slots.
func TestFlightStoreReplacesByID(t *testing.T) {
	f := NewFlight(FlightConfig{SampleN: -1, Retain: 8})

	id := f.Mint()
	start := time.Now()
	f.Finish(TraceDone{ID: id, Route: "POST /v1/batch", Outcome: OutcomeError, Start: start, Duration: time.Millisecond})
	f.Span(id, StageClassify, start, time.Millisecond, 0)
	f.Finish(TraceDone{ID: id, Route: "job:batch", Outcome: OutcomeError, Start: start, Duration: 2 * time.Millisecond})

	tr, ok := f.Get(id)
	if !ok {
		t.Fatal("trace gone after re-finish")
	}
	if tr.Route != "job:batch" || len(tr.Spans) != 1 {
		t.Fatalf("re-finish did not replace: %+v", tr)
	}
	if got := f.Stats().Stored; got != 1 {
		t.Fatalf("store holds %d entries after re-finish, want 1", got)
	}
}

// TestRetainedStoreBoundsSpans: 256 batch-sized traces (a 256-job batch
// keeps about 1,027 spans) fill the store by spans long before its trace
// count bound, so it keeps only the newest that fit in the ring's
// capacity; a re-finish re-accounts its spans, and one trace larger than
// the whole bound is still kept.
func TestRetainedStoreBoundsSpans(t *testing.T) {
	const perBatch = 1027
	f := NewFlight(FlightConfig{})
	st := &f.store
	if st.spanCap != defaultFlightSlots {
		t.Fatalf("span bound %d, want the ring's capacity %d", st.spanCap, defaultFlightSlots)
	}
	spans := make([]Span, perBatch)
	for i := 1; i <= DefaultTraceRetain; i++ {
		st.put(&Trace{ID: TraceID(i).String(), Spans: spans})
		if st.spans > st.spanCap {
			t.Fatalf("after trace %d the store holds %d spans, bound %d", i, st.spans, st.spanCap)
		}
	}
	keep := st.spanCap / perBatch
	if st.len() != keep {
		t.Fatalf("store holds %d traces, want the newest %d that fit", st.len(), keep)
	}
	if _, ok := st.get(TraceID(DefaultTraceRetain)); !ok {
		t.Fatal("the newest trace was evicted")
	}
	if _, ok := st.get(TraceID(DefaultTraceRetain - keep)); ok {
		t.Fatal("a trace older than the span bound allows is still stored")
	}

	// Re-finishing the newest trace with fewer spans frees room.
	newest := TraceID(DefaultTraceRetain).String()
	st.put(&Trace{ID: newest, Spans: spans[:1]})
	if want := (keep-1)*perBatch + 1; st.spans != want {
		t.Fatalf("after a re-finish the store counts %d spans, want %d", st.spans, want)
	}

	huge := make([]Span, st.spanCap+1)
	st.put(&Trace{ID: TraceID(1 << 40).String(), Spans: huge})
	if st.len() != 1 || st.spans != len(huge) {
		t.Fatalf("an oversized trace left %d traces and %d spans, want it alone", st.len(), st.spans)
	}
}
