package telemetry

import "sync/atomic"

// NumCountBuckets is the fixed bucket count of a CountHist: buckets 0..15
// count the exact observed values 0..15, the last bucket is the overflow.
// Small-integer distributions (per-target probe attempts, retry counts)
// concentrate entirely below the overflow, so exact unit buckets beat the
// latency histogram's factor-of-two resolution where it matters.
const NumCountBuckets = 17

// CountHist is a lock-free histogram over small non-negative integers:
// Observe is two atomic adds on a preallocated array, mirroring
// Histogram's contract (zero allocation, any number of concurrent
// writers). The zero value is ready to use.
type CountHist struct {
	sum     Counter
	buckets [NumCountBuckets]atomic.Int64
}

// Observe records one value (negative values count as 0).
func (h *CountHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := v
	if i >= NumCountBuckets {
		i = NumCountBuckets - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state. As in
// Histogram.Snapshot, Count is the total of the copied buckets and only
// Sum can skew under concurrent observations.
func (h *CountHist) Snapshot() CountHistSnapshot {
	var s CountHistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// CountHistSnapshot is a point-in-time copy of a CountHist: plain values,
// safe to marshal, compare, and merge.
type CountHistSnapshot struct {
	// Count and Sum aggregate every observation.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Buckets[i] counts observations of the exact value i; the last
	// bucket counts everything at or above NumCountBuckets-1.
	Buckets [NumCountBuckets]int64 `json:"buckets"`
}

// Merge adds o into s (commutative and associative, like histogram
// snapshots).
func (s *CountHistSnapshot) Merge(o CountHistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed value (0 when empty).
func (s CountHistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Max returns the largest bucket value with an observation (the overflow
// bucket reports NumCountBuckets-1, a lower bound).
func (s CountHistSnapshot) Max() int64 {
	for i := NumCountBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			return int64(i)
		}
	}
	return 0
}
