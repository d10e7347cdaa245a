package telemetry

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines (the
// -race build is the interesting run) and checks nothing is lost.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 16, 10_000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("Counter.Load() = %d, want %d", got, goroutines*perG)
	}
}

// TestCounterNegativeAndLoad: deltas sum across shards.
func TestCounterNegativeAndLoad(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-3)
	c.Add(5)
	if got := c.Load(); got != 12 {
		t.Fatalf("Counter.Load() = %d, want 12", got)
	}
}

// TestGaugeSetMax: SetMax only ever raises, including under concurrency.
func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i <= 1000; i++ {
				g.SetMax(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Load(); got != 8000 {
		t.Fatalf("concurrent SetMax high water = %d, want 8000", got)
	}
}

// TestBucketIndexBounds pins the bucket law: every duration lands in the
// smallest bucket whose upper bound holds it, exact powers of two in
// their own bucket.
func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{1, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, 32},
		{240 * time.Hour, NumHistBuckets - 1}, // overflow clamps
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
		if c.d > 0 && c.want < NumHistBuckets-1 {
			if b := BucketBound(c.want); c.d > b {
				t.Errorf("bucketIndex(%v) = %d but bound %v is below it", c.d, c.want, b)
			}
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines and
// checks the snapshot accounts for every observation (-race covers the
// memory model side).
func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 16, 5_000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(rng.Intn(int(10 * time.Millisecond))))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("snapshot count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestHistogramSnapshotCountMatchesBuckets: a snapshot taken while other
// goroutines observe must still have Count equal to its bucket total,
// and its exposition a +Inf bucket equal to _count, as the Prometheus
// text format requires.
func TestHistogramSnapshotCountMatchesBuckets(t *testing.T) {
	const observers, snapshots = 4, 2_000
	var h Histogram
	var ch CountHist
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(i%5000) * time.Microsecond)
				ch.Observe(int64(i % 20))
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var s HistogramSnapshot
	var r Registry
	r.Family("", nil, "caai_test_seconds", "test family", KindHistogram, func(p *PromWriter, name string) {
		p.HistogramSamples(name, nil, s)
	})
	var b strings.Builder
	for i := 0; i < snapshots; i++ {
		s = h.Snapshot()
		var total int64
		for _, n := range s.Buckets {
			total += n
		}
		if s.Count != total {
			t.Fatalf("snapshot %d: Count %d != bucket total %d", i, s.Count, total)
		}
		cs := ch.Snapshot()
		total = 0
		for _, n := range cs.Buckets {
			total += n
		}
		if cs.Count != total {
			t.Fatalf("count-hist snapshot %d: Count %d != bucket total %d", i, cs.Count, total)
		}

		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `caai_test_seconds_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "caai_test_seconds_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("exposition %d: +Inf bucket %q != _count %q", i, inf, count)
		}
	}
}

// TestSnapshotMergeAssociative: merging per-worker snapshots must give
// identical totals in any grouping -- (a+b)+c == a+(b+c) -- and be
// commutative, so sharded aggregation order never matters.
func TestSnapshotMergeAssociative(t *testing.T) {
	mk := func(seed int64) HistogramSnapshot {
		var h Histogram
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			h.Observe(time.Duration(rng.Intn(int(time.Second))))
		}
		return h.Snapshot()
	}
	a, b, c := mk(1), mk(2), mk(3)

	left := a // (a+b)+c
	left.Merge(b)
	left.Merge(c)

	bc := b // a+(b+c)
	bc.Merge(c)
	right := a
	right.Merge(bc)

	if left != right {
		t.Fatalf("merge is not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left, right)
	}

	ba := b // commutativity
	ba.Merge(a)
	ab := a
	ab.Merge(b)
	if ab != ba {
		t.Fatalf("merge is not commutative")
	}
	if left.Count != 3000 {
		t.Fatalf("merged count = %d, want 3000", left.Count)
	}
}

// TestQuantileBuckets: quantiles interpolate linearly inside the bucket
// holding the ranked observation, so estimates land strictly within the
// bucket's (lower, upper] span instead of pinning to the upper edge.
func TestQuantileBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket 7: (64µs, 128µs]
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond) // bucket 14: (~8.2ms, ~16.4ms]
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got <= BucketBound(6) || got > BucketBound(7) {
		t.Fatalf("p50 = %v, want in (%v, %v]", got, BucketBound(6), BucketBound(7))
	}
	// Rank 50 of 100 lands 50/90ths into bucket 7's 90 observations:
	// 64µs + (50/90)·64µs ≈ 99.6µs — near the true 100µs, where the old
	// upper-bound answer was a flat 128µs.
	if got := s.Quantile(0.5); got < 90*time.Microsecond || got > 110*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈100µs from in-bucket interpolation", got)
	}
	if got := s.Quantile(0.99); got <= BucketBound(13) || got > BucketBound(14) {
		t.Fatalf("p99 = %v, want in (%v, %v]", got, BucketBound(13), BucketBound(14))
	}
	if got := s.Quantile(1); got != BucketBound(14) {
		t.Fatalf("p100 = %v, want holding bucket's upper bound %v", got, BucketBound(14))
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestSpanClock: Start/Lap stamps consecutive stages; an unarmed clock
// records nothing (the disabled-telemetry contract).
func TestSpanClock(t *testing.T) {
	var timings StageTimings
	var c SpanClock
	c.Lap(&timings, StageGather)
	if !timings.Zero() {
		t.Fatalf("unarmed Lap recorded %+v", timings)
	}
	c.Start()
	time.Sleep(time.Millisecond)
	c.Lap(&timings, StageGather)
	time.Sleep(time.Millisecond)
	c.Lap(&timings, StageClassify)
	if timings[StageGather] <= 0 || timings[StageClassify] <= 0 {
		t.Fatalf("laps not recorded: %+v", timings)
	}
	if timings.Zero() {
		t.Fatal("Zero() on stamped timings")
	}
	if total := timings.Total(); total < timings[StageGather] {
		t.Fatalf("Total() = %v below gather span", total)
	}
}

// TestPipelineObserve: ObserveTimings lands each non-zero span in its
// stage histogram only.
func TestPipelineObserve(t *testing.T) {
	var p Pipeline
	tm := StageTimings{}
	tm[StageGather] = 3 * time.Millisecond
	tm[StageClassify] = 40 * time.Microsecond
	p.ObserveTimings(&tm)
	p.Observe(StageQueueWait, time.Millisecond)

	snap := p.Snapshot()
	wantCounts := map[Stage]int64{StageQueueWait: 1, StageGather: 1, StageClassify: 1}
	for s := 0; s < NumStages; s++ {
		if got := snap[s].Count; got != wantCounts[Stage(s)] {
			t.Errorf("stage %s count = %d, want %d", Stage(s), got, wantCounts[Stage(s)])
		}
	}
	if got := p.Stage(StageGather).Snapshot().Sum; got != 3*time.Millisecond {
		t.Fatalf("gather sum = %v", got)
	}
}

// TestStageNames pins the wire labels (they appear in JSON responses,
// Prometheus series, and CLI output).
func TestStageNames(t *testing.T) {
	want := []string{"queue_wait", "gather", "feature", "classify", "cache"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if NumStages != len(want) {
		t.Fatalf("NumStages = %d, want %d (update the wire docs when adding stages)", NumStages, len(want))
	}
}

// TestPromHistogramExposition checks the exposition invariants a scraper
// relies on: cumulative buckets, a +Inf bucket equal to _count, and
// label merging on bucket samples.
func TestPromHistogramExposition(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)       // bucket 0
	h.Observe(500 * time.Microsecond) // bucket 9
	h.Observe(500 * time.Microsecond) // bucket 9
	var r Registry
	r.Family("", nil, "caai_test_seconds", "test family", KindHistogram, func(p *PromWriter, name string) {
		p.HistogramSamples(name, map[string]string{"stage": "gather"}, h.Snapshot())
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP caai_test_seconds test family\n",
		"# TYPE caai_test_seconds histogram\n",
		`caai_test_seconds_bucket{stage="gather",le="1e-06"} 1` + "\n",
		`caai_test_seconds_bucket{stage="gather",le="0.000512"} 3` + "\n",
		`caai_test_seconds_bucket{stage="gather",le="+Inf"} 3` + "\n",
		`caai_test_seconds_count{stage="gather"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestPromCounterVecEscapesOnce: a CounterVec label value is escaped
// exactly as labelString escapes it -- quote, backslash and newline each
// once -- not escaped and then re-quoted.
func TestPromCounterVecEscapesOnce(t *testing.T) {
	const v = "a\"b\\c\nd"
	var r Registry
	r.CounterVec("", "caai_test_total", "test family", "label").Add(v, 2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `caai_test_total{label="a\"b\\c\nd"} 2` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q\n%s", want, b.String())
	}
	if ls := labelString(map[string]string{"label": v}); !strings.Contains(want, ls) {
		t.Fatalf("CounterVec and labelString disagree: %q vs %q", want, ls)
	}
}

// TestHistogramZeroAllocObserve pins the record-path allocation contract.
func TestHistogramZeroAllocObserve(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	var p Pipeline
	tm := StageTimings{StageGather: time.Millisecond}
	if allocs := testing.AllocsPerRun(200, func() {
		h.Observe(123 * time.Microsecond)
		c.Add(1)
		g.SetMax(7)
		p.ObserveTimings(&tm)
	}); allocs != 0 {
		t.Fatalf("record path allocates %v per run, want 0", allocs)
	}
}
