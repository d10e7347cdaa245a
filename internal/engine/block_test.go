package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
)

// fakeBlock buffers fakeIdentifier outcomes like a pipeline block session,
// recording non-empty flush widths so tests can assert when blocks drain,
// and each gathered tag (when gathered is set) so tests can order gathers
// against streamed results.
type fakeBlock struct {
	buf      []Result[fakeOut]
	mu       *sync.Mutex
	flushes  *[]int
	gathered *[]string
}

func (b *fakeBlock) Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) {
	if b.gathered != nil {
		b.mu.Lock()
		*b.gathered = append(*b.gathered, fmt.Sprintf("gather %d", tag))
		b.mu.Unlock()
	}
	out := fakeIdentifier{}.Identify(server, cond, cfg, rng)
	b.buf = append(b.buf, Result[fakeOut]{Index: tag, Out: out})
}

func (b *fakeBlock) Flush(emit func(tag int, out fakeOut)) {
	if len(b.buf) > 0 && b.flushes != nil {
		b.mu.Lock()
		*b.flushes = append(*b.flushes, len(b.buf))
		b.mu.Unlock()
	}
	for _, r := range b.buf {
		emit(r.Index, r.Out)
	}
	b.buf = b.buf[:0]
}

// TestIdentifyBatchBlockMatchesScalar: per-worker sessions must reproduce
// the shared identifier result for result, whatever the parallelism.
func TestIdentifyBatchBlockMatchesScalar(t *testing.T) {
	jobs := batchJobs(50)
	want := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{Parallelism: 1, Seed: 17})
	for _, par := range []int{1, 3, 8} {
		got := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
			Parallelism:    par,
			Seed:           17,
			NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{} },
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: session results differ from the shared identifier", par)
		}
	}
}

// TestIdentifyBatchBlockFlushWidths: a single worker over 10 jobs must
// flush after every gather -- ten flushes of one job each.
func TestIdentifyBatchBlockFlushWidths(t *testing.T) {
	var mu sync.Mutex
	var flushes []int
	IdentifyBatch[fakeOut](fakeIdentifier{}, batchJobs(10), BatchConfig[fakeOut]{
		Parallelism:    1,
		Seed:           5,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{mu: &mu, flushes: &flushes} },
	})
	if want := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}; !reflect.DeepEqual(flushes, want) {
		t.Fatalf("flush widths = %v, want %v", flushes, want)
	}
}

// TestIdentifyBatchResultPrecedesNextGather: on one worker, OnResult for
// job k must fire before job k+1 is gathered -- results stream one by
// one, never in bursts held back for a block to fill.
func TestIdentifyBatchResultPrecedesNextGather(t *testing.T) {
	const n = 130
	var mu sync.Mutex
	var events []string
	IdentifyBatch[fakeOut](fakeIdentifier{}, batchJobs(n), BatchConfig[fakeOut]{
		Parallelism:    1,
		Seed:           11,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{mu: &mu, gathered: &events} },
		OnResult: func(r Result[fakeOut]) {
			mu.Lock()
			events = append(events, fmt.Sprintf("result %d", r.Index))
			mu.Unlock()
		},
	})
	if len(events) != 2*n {
		t.Fatalf("saw %d events, want %d", len(events), 2*n)
	}
	for k := 0; k < n; k++ {
		if events[2*k] != fmt.Sprintf("gather %d", k) || events[2*k+1] != fmt.Sprintf("result %d", k) {
			t.Fatalf("events %d..%d = %q, want gather %d then its result", 2*k, 2*k+1, events[2*k:2*k+2], k)
		}
	}
}

// TestIdentifyBatchBlockStreamsEveryResult: OnResult must see every job
// exactly once, matching the returned slice.
func TestIdentifyBatchBlockStreamsEveryResult(t *testing.T) {
	jobs := batchJobs(25)
	var mu sync.Mutex
	seen := map[int]fakeOut{}
	results := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
		Parallelism:    4,
		Seed:           7,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{} },
		OnResult: func(r Result[fakeOut]) {
			mu.Lock()
			seen[r.Index] = r.Out
			mu.Unlock()
		},
	})
	if len(seen) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(jobs))
	}
	for _, r := range results {
		if seen[r.Index] != r.Out {
			t.Fatalf("streamed result %d disagrees with returned result", r.Index)
		}
	}
}

// TestIdentifyBatchBlockCancelDrainsGathered: cancelling mid-batch must
// still deliver every job that was gathered -- a probe already spent must
// not lose its result -- while jobs never gathered keep zero slots.
func TestIdentifyBatchBlockCancelDrainsGathered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := batchJobs(300)
	var mu sync.Mutex
	streamed := 0
	results := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
		Ctx:            ctx,
		Parallelism:    2,
		Seed:           3,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{} },
		OnResult: func(Result[fakeOut]) {
			mu.Lock()
			streamed++
			if streamed == 8 {
				cancel()
			}
			mu.Unlock()
		},
	})
	var done, skipped int
	for _, r := range results {
		if r.Job.Server != nil {
			done++
		} else {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("cancelled batch skipped no jobs")
	}
	mu.Lock()
	defer mu.Unlock()
	if streamed != done {
		t.Fatalf("streamed %d results but %d slots are filled -- gathered jobs were dropped", streamed, done)
	}
}
