// Package telemetry is the pipeline's low-overhead metrics core: lock-free
// sharded counters, gauges, fixed-bucket log-spaced latency histograms with
// mergeable snapshots, and a per-stage span recorder that stamps where each
// identification spent its time (queue wait, trace gathering, feature
// extraction, classification, cache lookup). The service aggregates stage
// spans into per-stage histograms and exposes everything as both the JSON
// snapshot and Prometheus text exposition on GET /metrics.
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

import (
	"sync/atomic"
	"unsafe"
)

// counterShards is the fixed shard count of a Counter. A power of two so
// the shard index is a mask, sized past the core counts this pipeline
// targets; beyond it the false-sharing padding dominates the win.
const counterShards = 32

// cacheLine padding keeps neighbouring shards off one cache line, so two
// cores hammering different shards never ping-pong ownership.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a lock-free sharded monotonic counter. Add scatters across
// cache-line-padded shards keyed by the caller's stack address (distinct
// per goroutine, stable within a call), so concurrent writers on different
// goroutines usually hit different cache lines; Load sums the shards.
// The zero value is ready to use.
type Counter struct {
	shards [counterShards]paddedInt64
}

// shardIndex derives a cheap goroutine-affine shard key: goroutine stacks
// live in distinct allocations, so the address of any stack variable
// separates goroutines without runtime hooks. Bits below the typical
// frame size are discarded so one goroutine maps to one shard regardless
// of call depth jitter.
func shardIndex() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe))>>10) & (counterShards - 1)
}

// Add increments the counter by n (n may be negative, though counters are
// conventionally monotonic; use a Gauge for values that go down).
func (c *Counter) Add(n int64) {
	c.shards[shardIndex()].v.Add(n)
}

// Load sums the shards. Under concurrent Adds the result is a linearizable
// lower bound: every Add that returned before Load began is included.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

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
