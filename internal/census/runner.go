package census

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Outcome pairs a server's ground truth with CAAI's identification.
type Outcome struct {
	Truth GroundTruth
	ID    core.Identification
}

// Report aggregates a census run (the paper's Table IV).
type Report struct {
	// Total is the population size.
	Total int
	// InvalidByReason counts servers without valid traces.
	InvalidByReason map[probe.InvalidReason]int
	// ByWmax maps wmax -> label -> count over valid traces; specials
	// appear under their Special.String() label.
	ByWmax map[int]map[string]int
	// ValidByWmax counts valid traces per wmax column.
	ValidByWmax map[int]int
	// Specials counts detected special shapes.
	Specials map[trace.Special]int
	// TruthMatrix maps ground-truth label -> reported label -> count
	// (valid, non-special traces only).
	TruthMatrix map[string]map[string]int
	// Outcomes holds every per-server outcome for downstream analysis.
	Outcomes []Outcome
}

// Valid returns the number of servers with valid traces.
func (r *Report) Valid() int {
	n := 0
	for _, v := range r.ValidByWmax {
		n += v
	}
	return n
}

// LabelShare returns label's percentage among valid traces.
func (r *Report) LabelShare(label string) float64 {
	valid := r.Valid()
	if valid == 0 {
		return 0
	}
	n := 0
	for _, m := range r.ByWmax {
		n += m[label]
	}
	return 100 * float64(n) / float64(valid)
}

// Accuracy returns the fraction of valid, non-special, known-truth servers
// whose report matched the ground truth (merged per the wmax used).
func (r *Report) Accuracy() float64 {
	correct, total := 0, 0
	for truth, row := range r.TruthMatrix {
		for got, n := range row {
			total += n
			if truth == got {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// windowsLabels are the labels consistent with a Windows TCP stack.
var windowsLabels = map[string]bool{
	"RENO-BIG":        true,
	"CTCP1-BIG":       true,
	"CTCP2-BIG":       true,
	core.LabelRCSmall: true,
}

// IISNonWindowsShare returns the fraction of valid, classified IIS servers
// whose identified algorithm is not a Windows stack (RENO/CTCP). The paper
// observes ~15% and attributes them to TCP proxies splitting the
// connection (Section VII-B1).
func (r *Report) IISNonWindowsShare() float64 {
	iis, nonWindows := 0, 0
	for _, o := range r.Outcomes {
		if o.Truth.Server.Software != "IIS" || !o.ID.Valid {
			continue
		}
		if o.ID.Special != trace.SpecialNone || o.ID.Label == core.LabelUnsure || o.ID.Label == "" {
			continue
		}
		iis++
		if !windowsLabels[o.ID.Label] {
			nonWindows++
		}
	}
	if iis == 0 {
		return 0
	}
	return float64(nonWindows) / float64(iis)
}

// ShareBy aggregates the population share of a string property (region,
// software) over all servers.
func ShareBy(population []GroundTruth, key func(GroundTruth) string) map[string]float64 {
	counts := map[string]int{}
	for _, gt := range population {
		counts[key(gt)]++
	}
	out := make(map[string]float64, len(counts))
	for k, n := range counts {
		out[k] = float64(n) / float64(len(population))
	}
	return out
}

// Campaign is the paper's Table IV study at the given size and seed: the
// generated population and the seed its targets are probed with. Every
// census runner (experiments.TableIV, cmd/caai-census, the service's
// POST /v1/census) derives both here, so one seed and model give one
// table whichever runs it.
func Campaign(servers int, seed int64) (population []GroundTruth, probeSeed int64) {
	cfg := DefaultPopulationConfig()
	cfg.Servers = servers
	cfg.Seed = seed + 77
	return GeneratePopulation(cfg), seed + 99
}

// Run probes every server in the population at the model's probe budget
// (id.Probe()) on the engine's worker pool, seeding server i's conditions
// and probe from seed, and aggregates Table IV. Each pool worker reuses
// one pipeline session (probe and feature scratch) across the servers it
// probes; outcomes stay independent of worker scheduling.
func Run(population []GroundTruth, id *core.Identifier, db *netem.Database, seed int64) *Report {
	budget := id.Probe()
	outcomes := make([]Outcome, len(population))
	sessions := make([]*core.Session, engine.Workers(len(population), 0))
	for w := range sessions {
		sessions[w] = id.NewSession()
	}
	engine.RunWorkers(context.Background(), len(population), 0, func(w, i int) {
		rng := xrand.New(seed + int64(i)*6700417)
		cond := db.Sample(rng)
		// Start from a pristine ssthresh cache so the outcome is a pure
		// function of (server, seed): re-running a census over the same
		// population reproduces it exactly.
		population[i].Server.ResetCache()
		ident := sessions[w].Identify(population[i].Server, cond, budget, rng)
		outcomes[i] = Outcome{Truth: population[i], ID: ident}
	})
	return aggregate(outcomes)
}

// Aggregate folds per-server outcomes into a Report. The fold visits
// outcomes in slice order and every table is a pure function of the
// outcome values, so any runner that fills the slice by population index
// (census.Run, the sharded coordinator in census/shard, a checkpoint
// resume) aggregates to bit-identical tables.
func Aggregate(outcomes []Outcome) *Report { return aggregate(outcomes) }

func aggregate(outcomes []Outcome) *Report {
	r := &Report{
		Total:           len(outcomes),
		InvalidByReason: map[probe.InvalidReason]int{},
		ByWmax:          map[int]map[string]int{},
		ValidByWmax:     map[int]int{},
		Specials:        map[trace.Special]int{},
		TruthMatrix:     map[string]map[string]int{},
		Outcomes:        outcomes,
	}
	for _, o := range outcomes {
		if !o.ID.Valid {
			r.InvalidByReason[o.ID.Reason]++
			continue
		}
		r.ValidByWmax[o.ID.Wmax]++
		m := r.ByWmax[o.ID.Wmax]
		if m == nil {
			m = map[string]int{}
			r.ByWmax[o.ID.Wmax] = m
		}
		label := o.ID.Label
		if o.ID.Special != trace.SpecialNone {
			label = o.ID.Special.String()
			r.Specials[o.ID.Special]++
		}
		m[label]++

		if o.ID.Special == trace.SpecialNone && o.Truth.Special == trace.SpecialNone {
			truth := o.Truth.Algorithm
			if truth != "UNKNOWN" {
				truth = core.TrainingLabel(truth, o.ID.Wmax)
			}
			row := r.TruthMatrix[truth]
			if row == nil {
				row = map[string]int{}
				r.TruthMatrix[truth] = row
			}
			row[label]++
		}
	}
	return r
}

// TableIV renders the census report in the layout of the paper's Table IV:
// one column per wmax, one row per label, percentages over valid traces.
func (r *Report) TableIV() string {
	wmaxes := make([]int, 0, len(r.ByWmax))
	for w := range r.ByWmax {
		wmaxes = append(wmaxes, w)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(wmaxes)))

	labelSet := map[string]bool{}
	for _, m := range r.ByWmax {
		for l := range m {
			labelSet[l] = true
		}
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	valid := r.Valid()
	var b strings.Builder
	fmt.Fprintf(&b, "Servers: %d total, %d with valid traces (%.2f%%)\n",
		r.Total, valid, 100*float64(valid)/float64(r.Total))
	reasons := make([]string, 0, len(r.InvalidByReason))
	for reason := range r.InvalidByReason {
		reasons = append(reasons, string(reason))
	}
	// Sorted so the rendering is byte-deterministic (the shard package's
	// determinism-under-failure contract compares TableIV output).
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(&b, "  invalid (%s): %d\n", reason, r.InvalidByReason[probe.InvalidReason(reason)])
	}
	fmt.Fprintf(&b, "%-24s", "label \\ wmax")
	for _, w := range wmaxes {
		fmt.Fprintf(&b, "%9d", w)
	}
	fmt.Fprintf(&b, "%9s\n", "overall")
	for _, l := range labels {
		fmt.Fprintf(&b, "%-24s", l)
		total := 0
		for _, w := range wmaxes {
			n := r.ByWmax[w][l]
			total += n
			fmt.Fprintf(&b, "%8.2f%%", 100*float64(n)/float64(valid))
		}
		fmt.Fprintf(&b, "%8.2f%%\n", 100*float64(total)/float64(valid))
	}
	fmt.Fprintf(&b, "%-24s", "valid traces")
	for _, w := range wmaxes {
		fmt.Fprintf(&b, "%8.2f%%", 100*float64(r.ValidByWmax[w])/float64(valid))
	}
	fmt.Fprintf(&b, "%8.2f%%\n", 100.0)
	return b.String()
}
