package service

import (
	"sync"
	"testing"
)

// BenchmarkCountLabel measures the per-identification tally under
// parallel load: "atomic" is the shipped path, an outcome and a label
// telemetry.CounterVec (sync.Map + atomic.Int64, lock-free once a
// series exists), "mutex" re-creates the design before it (one mutex
// around a plain map) for comparison. On a multi-core box the mutex
// variant serializes every identification through one lock; the atomic
// variant scales with cores.
func BenchmarkCountLabel(b *testing.B) {
	resp := IdentifyResponse{Valid: true, Label: "CUBIC2"}

	b.Run("atomic", func(b *testing.B) {
		s := New(NewRegistry(), Config{})
		defer s.Close()
		m := s.metrics
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.countLabel(resp)
			}
		})
	})

	b.Run("mutex", func(b *testing.B) {
		var mu sync.Mutex
		labels := map[string]int64{}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				labels[resp.Label]++
				mu.Unlock()
			}
		})
	})
}
