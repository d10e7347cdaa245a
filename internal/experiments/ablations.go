package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/websim"
)

// AblationResult reports one design-choice ablation: the identification
// accuracy with the mechanism on versus off.
type AblationResult struct {
	Name      string
	With      float64
	Without   float64
	Trials    int
	Mechanism string
}

// String renders the ablation outcome.
func (a AblationResult) String() string {
	return fmt.Sprintf("%-22s with: %6.2f%%   without: %6.2f%%   (%d trials; %s)",
		a.Name, a.With*100, a.Without*100, a.Trials, a.Mechanism)
}

// ablationTrials runs repeated identifications of servers produced by mk
// under two probe configurations and reports the accuracy of each.
func ablationTrials(ctx *Context, name, mechanism string, trials int, mk func(i int) (*websim.Server, string), withCfg, withoutCfg probe.Config) (AblationResult, error) {
	model, err := ctx.Model()
	if err != nil {
		return AblationResult{}, err
	}
	id := core.NewIdentifier(model)
	run := func(cfg probe.Config, salt int64) float64 {
		correct := 0
		for i := 0; i < trials; i++ {
			rng := ctx.rng(salt + int64(i)*17)
			cond := ctx.DB.Sample(rng)
			server, truth := mk(i)
			got := id.Identify(server, cond, cfg, rng)
			if got.Valid && got.Label == core.TrainingLabel(truth, got.Wmax) {
				correct++
			}
		}
		return float64(correct) / float64(trials)
	}
	return AblationResult{
		Name:      name,
		Mechanism: mechanism,
		Trials:    trials,
		With:      run(withCfg, 1000),
		Without:   run(withoutCfg, 2000),
	}, nil
}

// AblationFRTO measures the F-RTO duplicate-ACK counter-measure
// (Section IV-C): identifying F-RTO servers with and without the dup ACK.
func AblationFRTO(ctx *Context, trials int) (AblationResult, error) {
	mk := func(i int) (*websim.Server, string) {
		alg := []string{"RENO", "CUBIC2", "BIC", "HTCP"}[i%4]
		s := websim.Testbed(alg)
		s.FRTO = true
		return s, alg
	}
	return ablationTrials(ctx, "F-RTO dup-ACK", "dup ACK after the emulated timeout defuses spurious-RTO detection",
		trials, mk, probe.Config{}, probe.Config{DisableDupAck: true})
}

// AblationInterEnvWait measures the 10-minute wait between environments
// for servers that cache the slow start threshold (Section IV-C).
func AblationInterEnvWait(ctx *Context, trials int) (AblationResult, error) {
	mk := func(i int) (*websim.Server, string) {
		alg := []string{"RENO", "CUBIC2", "STCP", "HSTCP"}[i%4]
		s := websim.Testbed(alg)
		s.SsthreshCaching = true
		s.CacheTTL = 5 * time.Minute
		return s, alg
	}
	return ablationTrials(ctx, "inter-env wait", "waiting 10 min between environments lets ssthresh caches expire",
		trials, mk, probe.Config{}, probe.Config{InterEnvWait: time.Second})
}

// AblationPageSearch measures the long-page searching tool: identification
// of servers whose default page is short but which host a long page.
func AblationPageSearch(ctx *Context, trials int) (AblationResult, error) {
	mk := func(i int) (*websim.Server, string) {
		alg := []string{"CUBIC2", "BIC", "RENO", "CTCP1"}[i%4]
		s := websim.Testbed(alg)
		s.DefaultPageBytes = 40 << 10 // 40 kB default page
		s.LongestPageBytes = 8 << 20  // 8 MB page the tool can find
		return s, alg
	}
	return ablationTrials(ctx, "page search", "finding a long page supplies enough data for 28+ RTTs of windows",
		trials, mk, probe.Config{}, probe.Config{DisablePageSearch: true})
}

// AblationEnvB measures the need for the second network environment: the
// paper argues A alone cannot distinguish all algorithms (e.g. RENO vs
// VEGAS, STCP vs YEAH, CTCP1 vs CTCP2). We compare full A+B feature
// vectors against vectors whose B features are blanked.
func AblationEnvB(ctx *Context, trials int) (AblationResult, error) {
	model, err := ctx.Model()
	if err != nil {
		return AblationResult{}, err
	}
	id := core.NewIdentifier(model)
	pairs := []string{"VEGAS", "RENO", "YEAH", "STCP", "CTCP1", "CTCP2"}
	run := func(blankB bool, salt int64) float64 {
		correct := 0
		for i := 0; i < trials; i++ {
			alg := pairs[i%len(pairs)]
			rng := ctx.rng(salt + int64(i)*13)
			cond := ctx.DB.Sample(rng)
			p := probe.New(id.Probe(), cond, rng)
			res := p.Gather(websim.Testbed(alg))
			if !res.Valid {
				continue
			}
			if blankB {
				res.TraceB = nil
			}
			got := id.IdentifyResult(res)
			if got.Label == core.TrainingLabel(alg, got.Wmax) {
				correct++
			}
		}
		return float64(correct) / float64(trials)
	}
	return AblationResult{
		Name:      "environment B",
		Mechanism: "the varying-RTT environment separates delay-sensitive algorithms",
		Trials:    trials,
		With:      run(false, 5000),
		Without:   run(true, 6000),
	}, nil
}

// Ablations runs all four mechanism ablations.
func Ablations(ctx *Context, trials int) (string, error) {
	if trials <= 0 {
		trials = 40
	}
	var b strings.Builder
	b.WriteString("Design-choice ablations\n")
	for _, f := range []func(*Context, int) (AblationResult, error){
		AblationFRTO, AblationInterEnvWait, AblationPageSearch, AblationEnvB,
	} {
		res, err := f(ctx, trials)
		if err != nil {
			return "", err
		}
		b.WriteString("  " + res.String() + "\n")
	}
	return b.String(), nil
}
