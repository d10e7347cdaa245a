package census

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/trace"
)

func TestGeneratePopulationDeterministic(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.Servers = 200
	a := GeneratePopulation(cfg)
	b := GeneratePopulation(cfg)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Algorithm != b[i].Algorithm || a[i].Server.MinMSS != b[i].Server.MinMSS {
			t.Fatalf("population not deterministic at %d", i)
		}
	}
}

func TestPopulationDemographics(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.Servers = 8000
	pop := GeneratePopulation(cfg)
	regions := map[string]int{}
	software := map[string]int{}
	mss := map[int]int{}
	algorithms := map[string]int{}
	for _, gt := range pop {
		regions[gt.Server.Region]++
		software[gt.Server.Software]++
		mss[gt.Server.MinMSS]++
		algorithms[gt.Algorithm]++
	}
	// Europe ~43%, Apache ~70% (Section VII-B1).
	if frac := float64(regions["Europe"]) / 8000; frac < 0.38 || frac > 0.48 {
		t.Fatalf("Europe share = %v", frac)
	}
	if frac := float64(software["Apache"]) / 8000; frac < 0.65 || frac > 0.75 {
		t.Fatalf("Apache share = %v", frac)
	}
	// Most servers accept a 100-byte MSS (Table II).
	if frac := float64(mss[100]) / 8000; frac < 0.7 {
		t.Fatalf("100B MSS share = %v", frac)
	}
	// The mix must include the unknown bucket and all defaults.
	if algorithms["UNKNOWN"] == 0 {
		t.Fatal("no unknown-algorithm servers generated")
	}
	for _, alg := range []string{"BIC", "CUBIC2", "CTCP1", "RENO"} {
		if algorithms[alg] == 0 {
			t.Fatalf("no %s servers generated", alg)
		}
	}
}

func TestPopulationSpecialKnobs(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.Servers = 5000
	pop := GeneratePopulation(cfg)
	specials := map[trace.Special]int{}
	for _, gt := range pop {
		if gt.Special != trace.SpecialNone {
			specials[gt.Special]++
			switch gt.Special {
			case trace.RemainingAtOne:
				if gt.Server.PostTimeoutClamp != 1 {
					t.Fatal("RemainingAtOne knob missing")
				}
			case trace.NonincreasingWindow:
				if gt.Server.SendBufferSegments == 0 {
					t.Fatal("Nonincreasing knob missing")
				}
			case trace.BoundedWindow:
				if gt.Server.CwndClamp == 0 {
					t.Fatal("Bounded knob missing")
				}
			case trace.ApproachingWmax:
				if gt.Server.CustomAlgorithm == nil {
					t.Fatal("Approaching knob missing")
				}
			}
		}
	}
	for sp, frac := range cfg.SpecialFraction {
		got := float64(specials[sp]) / 5000
		if got < frac*0.5 || got > frac*2 {
			t.Errorf("%v share = %v, want ~%v", sp, got, frac)
		}
	}
}

func TestUnknownAlgorithmBehaviour(t *testing.T) {
	alg := NewUnknownAlgorithm()
	c := cc.NewConn(536, 2)
	c.Cwnd, c.Ssthresh = 100, 100
	th := alg.Ssthresh(c)
	if th != 60 {
		t.Fatalf("unknown beta: ssthresh = %v, want 60", th)
	}
	alg.OnAck(c, 1, time.Second)
	if c.Cwnd <= 100 {
		t.Fatal("unknown algorithm must grow")
	}
}

func TestApproacherShape(t *testing.T) {
	alg := NewApproacherAlgorithm()
	c := cc.NewConn(536, 2)
	c.Cwnd, c.Ssthresh = 128, 128
	c.Ssthresh = alg.Ssthresh(c) // loss at 128: target 128, ssthresh 64
	if c.Ssthresh != 64 {
		t.Fatalf("ssthresh = %v, want 64", c.Ssthresh)
	}
	c.Cwnd = 64
	// Increments decay as the window approaches the target.
	var prev, first, last float64
	prev = c.Cwnd
	for r := 0; r < 10; r++ {
		for i := 0; i < int(c.Cwnd); i++ {
			alg.OnAck(c, 1, time.Second)
		}
		inc := c.Cwnd - prev
		if r == 0 {
			first = inc
		}
		last = inc
		prev = c.Cwnd
	}
	if c.Cwnd > 128.5 {
		t.Fatalf("overshot the target: %v", c.Cwnd)
	}
	if last >= first/2 {
		t.Fatalf("increments did not decay: first %v last %v", first, last)
	}
}

func TestRunSmallCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	db := netem.MeasuredDatabase()
	ds, err := core.GenerateTrainingSet(db, core.TrainingConfig{ConditionsPerPair: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	id := core.NewIdentifier(forest.Train(ds, forest.Config{Trees: 30, Seed: 6}))
	cfg := DefaultPopulationConfig()
	cfg.Servers = 250
	pop := GeneratePopulation(cfg)
	report := Run(pop, id, db, RunConfig{Seed: 7})

	if report.Total != 250 {
		t.Fatalf("total = %d", report.Total)
	}
	valid := report.Valid()
	if valid < 80 || valid > 220 {
		t.Fatalf("valid = %d, want a plausible fraction of 250", valid)
	}
	if report.InvalidByReason[probe.ReasonInsufficientData] == 0 {
		t.Fatal("short pages must produce insufficient-data invalids")
	}
	if acc := report.Accuracy(); acc < 0.6 {
		t.Fatalf("ground-truth accuracy = %v, want >= 0.6", acc)
	}
	table := report.TableIV()
	for _, want := range []string{"label \\ wmax", "valid traces", "Servers: 250"} {
		if !strings.Contains(table, want) {
			t.Fatalf("TableIV missing %q:\n%s", want, table)
		}
	}
	// Shares sum to ~100% over valid traces.
	sum := 0.0
	for _, m := range report.ByWmax {
		for l := range m {
			_ = l
		}
	}
	for l := range collectLabels(report) {
		sum += report.LabelShare(l)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("label shares sum to %v", sum)
	}
}

func collectLabels(r *Report) map[string]bool {
	out := map[string]bool{}
	for _, m := range r.ByWmax {
		for l := range m {
			out[l] = true
		}
	}
	return out
}

func TestReportAccuracyMath(t *testing.T) {
	r := &Report{
		TruthMatrix: map[string]map[string]int{
			"BIC":  {"BIC": 8, "CUBIC1": 2},
			"RENO": {"RENO-BIG": 0},
		},
	}
	if got := r.Accuracy(); got != 0.8 {
		t.Fatalf("accuracy = %v, want 0.8", got)
	}
	empty := &Report{TruthMatrix: map[string]map[string]int{}}
	if got := empty.Accuracy(); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
}

func TestMinMSSShares(t *testing.T) {
	shares := MinMSSShares()
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("MSS shares sum to %v", total)
	}
	if shares[100] < 0.5 {
		t.Fatalf("100B share = %v, want the majority", shares[100])
	}
}

func TestPickWeightedDeterministicBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[pickWeighted(rng, regionWeights)] = true
	}
	if !seen["Europe"] || !seen["North America"] || !seen["Asia"] {
		t.Fatal("large regions never drawn")
	}
}

// paperStub is a zero-cost model trained, by its identifier's account, at
// probe.Paper: census tests of the probe budget need no forest.
type paperStub struct{}

func (paperStub) Name() string                         { return "stub" }
func (paperStub) Classify([]float64) (string, float64) { return "BIC", 0.9 }

// TestRunProbesAtModelBudget: a zero RunConfig probes at the model's
// budget, so a model trained at probe.Paper gathers on its four-rung
// ladder and yields valid outcomes at wmax 512.
func TestRunProbesAtModelBudget(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.Servers = 40
	id := core.NewIdentifierAt(paperStub{}, probe.Paper)
	report := Run(GeneratePopulation(cfg), id, netem.MeasuredDatabase(), RunConfig{Seed: 3})
	if report.ValidByWmax[512] == 0 {
		t.Fatalf("no valid outcome at wmax 512 (valid by wmax %v): the census did not probe at the model's budget", report.ValidByWmax)
	}
}
