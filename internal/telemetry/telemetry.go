// Package telemetry is the pipeline's low-overhead metrics core: lock-free
// counters, gauges, fixed-bucket log-spaced latency histograms with
// mergeable snapshots, and a per-stage span recorder that stamps where each
// identification spent its time (queue wait, trace gathering, feature
// extraction, classification, cache lookup). The service aggregates stage
// spans into per-stage histograms and exposes everything as both the JSON
// snapshot and Prometheus text exposition on GET /metrics. A flight
// recorder (Flight) keeps the spans of every request in one preallocated
// ring and retains a tail-sampled subset as readable traces.
//
// Design constraints, in order:
//
//  1. The identify hot path must stay zero-allocation with telemetry
//     enabled. Every Observe/Add/Set is a few atomic operations on
//     preallocated fixed-size arrays; nothing on the record path touches
//     the heap, takes a lock, or formats a string.
//  2. Reads never block writes. Snapshots are plain atomic loads; a
//     snapshot taken under concurrent traffic is a consistent-enough view
//     (a histogram's count is derived from its buckets, so only its sum
//     can skew by in-flight observations -- see Histogram.Snapshot).
//  3. Snapshots merge associatively, so per-worker or per-shard histograms
//     can be aggregated in any grouping with identical results.
package telemetry

import "sync/atomic"

// Counter is a lock-free monotonic counter: one atomic word. At the
// pipeline's rate (a few thousand identifications per second, each a
// dozen or so adds) contention on one cache line is far below noise.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n may be negative, though counters are
// conventionally monotonic; use a Gauge for values that go down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the counter.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value: queue depth, busy workers, retained
// jobs. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value -- the
// high-water-mark primitive (lock-free CAS loop).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load reads the gauge.
func (g *Gauge) Load() int64 { return g.v.Load() }
