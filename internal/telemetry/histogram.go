package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumHistBuckets is the fixed bucket count of every Histogram: bucket i
// covers durations in (2^(i-1), 2^i] microseconds, so the histogram spans
// 1µs (bucket 0 holds everything at or below it) to ~2.3 hours (the last
// bucket is the overflow). Log-spaced powers of two keep the bucket index
// a single bits.Len64 -- no search, no float math -- at a resolution
// (factor-of-two) that is plenty to tell a 100µs identification from a
// 10ms one.
const NumHistBuckets = 34

// BucketBound returns bucket i's inclusive upper bound. The last bucket
// has no upper bound (+Inf in the Prometheus exposition).
func BucketBound(i int) time.Duration {
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// bucketIndex maps a duration to the smallest bucket whose upper bound
// holds it: bits.Len64((d-1)/1µs) is exactly min{i : d <= 2^i µs} for
// positive d (the -1 keeps exact powers of two in their own bucket).
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64((d - 1) / time.Microsecond))
	if i >= NumHistBuckets {
		return NumHistBuckets - 1
	}
	return i
}

// Histogram is a fixed-bucket log-spaced latency histogram with atomic
// buckets: Observe is two atomic adds (bucket, sum) on a preallocated
// array -- no locks, no allocation -- safe for any number of concurrent
// writers. The zero value is ready to use.
type Histogram struct {
	sum Counter // nanoseconds
	// buckets are plain (unpadded) atomics: one Observe touches a single
	// bucket, and distinct latencies scatter across buckets, so padding
	// 34 slots per histogram buys little for 8x the footprint.
	buckets [NumHistBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot copies the histogram's current state. Count is the sum of
// the copied buckets, so it always equals their total -- the Prometheus
// text format requires _count to equal the +Inf bucket. Under concurrent
// observations Sum may trail or lead the buckets by in-flight
// observations, a bounded skew that vanishes at rest. Snapshots merge
// associatively.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: plain values,
// safe to marshal, compare, and merge.
type HistogramSnapshot struct {
	// Count and Sum aggregate every observation.
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum"`
	// Buckets[i] counts observations in (BucketBound(i-1), BucketBound(i)]
	// (non-cumulative; the Prometheus writer accumulates).
	Buckets [NumHistBuckets]int64 `json:"buckets"`
}

// Merge adds o into s. Merging is commutative and associative, so
// per-worker snapshots aggregate into the same totals in any grouping.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the q*Count-th observation and interpolating linearly within
// it (observations are assumed uniform inside a bucket). Log-spaced
// buckets bound the error at the bucket's factor-of-two width; the
// interpolation removes the systematic "always answer the upper edge"
// bias of a pure bucket lookup. Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank > float64(s.Count) {
		rank = float64(s.Count)
	}
	var seen int64
	for i, b := range s.Buckets {
		if b == 0 {
			seen += b
			continue
		}
		if float64(seen+b) >= rank {
			// Bucket i spans (lo, hi]; place the rank-th observation
			// proportionally among the bucket's b observations.
			var lo time.Duration
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			frac := (rank - float64(seen)) / float64(b)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		seen += b
	}
	return BucketBound(NumHistBuckets - 1)
}
