package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/feature"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// blockJobs is a small mixed workload: several algorithms under sampled
// lossy conditions, so the buffered outcomes span confident labels,
// Unsure calls, and the occasional invalid gathering.
func blockJobs(n int) (servers []*websim.Server, conds []netem.Condition, seeds []int64) {
	algs := []string{"RENO", "BIC", "CUBIC2", "VEGAS", "STCP", "HTCP"}
	db := netem.MeasuredDatabase()
	condRng := rand.New(rand.NewSource(71))
	for i := 0; i < n; i++ {
		servers = append(servers, websim.Testbed(algs[i%len(algs)]))
		conds = append(conds, db.Sample(condRng))
		seeds = append(seeds, int64(500+i))
	}
	return
}

// TestBlockSessionMatchesIdentifier: a BlockSession must reproduce the
// plain Identifier's results job for job, for the forest and for a stub
// backend -- and emission must preserve gather order and tags.
func TestBlockSessionMatchesIdentifier(t *testing.T) {
	trained := forest.Train(trainingSet(t), forest.Config{Trees: 20, Subspace: 4, Seed: 51})
	for _, tc := range []struct {
		name  string
		model classify.Classifier
	}{
		{"forest-batched", trained},
		{"scalar-backend", stubClassifier{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := NewIdentifier(tc.model)
			bs := id.NewBlockSession()
			servers, conds, seeds := blockJobs(9)
			want := make([]Identification, len(servers))
			for i := range servers {
				want[i] = id.Identify(servers[i], conds[i], probe.Config{}, xrand.New(seeds[i]))
				bs.Gather(i, servers[i], conds[i], probe.Config{}, xrand.New(seeds[i]))
			}
			if bs.Buffered() != len(servers) {
				t.Fatalf("Buffered() = %d, want %d", bs.Buffered(), len(servers))
			}
			var tags []int
			var got []Identification
			bs.Flush(func(tag int, out Identification) {
				tags = append(tags, tag)
				got = append(got, out)
			})
			if bs.Buffered() != 0 {
				t.Fatalf("Buffered() = %d after Flush, want 0", bs.Buffered())
			}
			for i := range servers {
				if tags[i] != i {
					t.Fatalf("emission %d has tag %d, want gather order", i, tags[i])
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("job %d: block result %+v != identifier result %+v", i, got[i], want[i])
				}
			}
			// A flushed session must be reusable: the next block reuses the
			// prober and scratch without leaking prior state.
			bs.Gather(0, servers[0], conds[0], probe.Config{}, xrand.New(seeds[0]))
			bs.Flush(func(_ int, out Identification) {
				if !reflect.DeepEqual(out, want[0]) {
					t.Fatalf("reused session drifted: %+v != %+v", out, want[0])
				}
			})
			// Flushing an empty session is a no-op.
			bs.Flush(func(int, Identification) { t.Fatal("empty flush emitted a result") })
		})
	}
}

// TestIdentifyResultWithMatchesIdentifyResult: the gathered-results
// entry point, with one feature scratch reused across results, must agree
// with IdentifyResult element for element across valid, invalid, and
// special outcomes; an armed clock only adds Timings.
func TestIdentifyResultWithMatchesIdentifyResult(t *testing.T) {
	model := forest.Train(trainingSet(t), forest.Config{Trees: 20, Subspace: 4, Seed: 52})
	id := NewIdentifier(model)
	servers, conds, seeds := blockJobs(8)
	var ress []*probe.Result
	for i := range servers {
		p := probe.New(probe.Config{}, conds[i], xrand.New(seeds[i]))
		ress = append(ress, p.Gather(servers[i]))
	}
	// A special-shape server and an invalid gathering round out the mix.
	special := websim.Testbed("RENO")
	special.PostTimeoutClamp = 1
	p := probe.New(probe.Config{}, netem.Lossless, xrand.New(1))
	ress = append(ress, p.Gather(special))
	broken := websim.Testbed("RENO")
	broken.IgnoreRTO = true
	p = probe.New(probe.Config{}, netem.Lossless, xrand.New(2))
	ress = append(ress, p.Gather(broken))

	var sc feature.Scratch
	for _, armed := range []bool{false, true} {
		recorded := false
		for i, res := range ress {
			var clock telemetry.SpanClock
			if armed {
				clock.Start()
			}
			got := id.IdentifyResultWith(&sc, &clock, res)
			recorded = recorded || !got.Timings.Zero()
			got.Timings = telemetry.StageTimings{}
			if want := id.IdentifyResult(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("armed=%v result %d: %+v != %+v", armed, i, got, want)
			}
		}
		if recorded != armed {
			t.Fatalf("armed=%v clock recorded spans: %v", armed, recorded)
		}
	}
}
