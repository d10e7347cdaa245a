package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cc"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/ml"
)

// TableI renders the catalogue of TCP algorithms per OS family.
func TableI() string {
	var b strings.Builder
	b.WriteString("Table I: TCP algorithms available in major OS families\n")
	fmt.Fprintf(&b, "%-10s %-15s %-8s %s\n", "algorithm", "family", "default", "description")
	for _, info := range cc.All() {
		def := ""
		if info.Default {
			def = "yes"
		}
		fmt.Fprintf(&b, "%-10s %-15s %-8s %s\n", info.Name, info.Family, def, info.Description)
	}
	return b.String()
}

// TableII renders the minimum segment size acceptance shares.
func TableII(ctx *Context) string {
	cfg := census.DefaultPopulationConfig()
	cfg.Servers = ctx.CensusServers
	pop := census.GeneratePopulation(cfg)
	counts := map[int]int{}
	for _, gt := range pop {
		counts[gt.Server.MinMSS]++
	}
	var b strings.Builder
	b.WriteString("Table II: minimum segment sizes of Web servers\n")
	for _, mss := range []int{100, 300, 536, 1460} {
		fmt.Fprintf(&b, "  mss >= %4d B: %s\n", mss, percent(counts[mss], len(pop)))
	}
	return b.String()
}

// TableIIIResult carries the cross-validation confusion matrix.
type TableIIIResult struct {
	Matrix   *forest.ConfusionMatrix
	Accuracy float64
}

// TableIII runs the paper's 10-fold cross validation at K=80, F=4 and
// returns the per-algorithm confusion matrix (paper overall: 96.98%).
func TableIII(ctx *Context) (*TableIIIResult, error) {
	ds, err := ctx.TrainingSet()
	if err != nil {
		return nil, err
	}
	m := forest.CrossValidate(ds, forest.Config{Trees: 80, Subspace: 4, Seed: ctx.Seed + 31}, ctx.Folds, ctx.rng(333))
	return &TableIIIResult{Matrix: m, Accuracy: m.Accuracy()}, nil
}

// String renders Table III.
func (r *TableIIIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: identification accuracy per TCP algorithm (overall %.2f%%, paper: 96.98%%)\n", r.Accuracy*100)
	b.WriteString(r.Matrix.String())
	return b.String()
}

// Fig12Point is one (K, F) accuracy measurement.
type Fig12Point struct {
	Trees    int
	Subspace int
	Accuracy float64
}

// Fig12 sweeps the two random forest parameters with k-fold cross
// validation: accuracy should rise with K and flatten by K~80, and be
// nearly flat in F.
func Fig12(ctx *Context, trees []int, subspaces []int) ([]Fig12Point, string, error) {
	if len(trees) == 0 {
		trees = []int{1, 2, 5, 10, 20, 40, 80, 100}
	}
	if len(subspaces) == 0 {
		subspaces = []int{1, 2, 3, 4, 5, 6, 7}
	}
	ds, err := ctx.TrainingSet()
	if err != nil {
		return nil, "", err
	}
	var out []Fig12Point
	var b strings.Builder
	b.WriteString("Fig. 12: cross-validation accuracy vs random forest parameters\n")
	fmt.Fprintf(&b, "%8s", "K \\ F")
	for _, f := range subspaces {
		fmt.Fprintf(&b, "%8d", f)
	}
	b.WriteByte('\n')
	for _, k := range trees {
		fmt.Fprintf(&b, "%8d", k)
		for _, f := range subspaces {
			m := forest.CrossValidate(ds, forest.Config{Trees: k, Subspace: f, Seed: ctx.Seed + int64(k*100+f)}, ctx.Folds, ctx.rng(int64(k*31+f)))
			acc := m.Accuracy()
			out = append(out, Fig12Point{Trees: k, Subspace: f, Accuracy: acc})
			fmt.Fprintf(&b, "%7.2f%%", acc*100)
		}
		b.WriteByte('\n')
	}
	return out, b.String(), nil
}

// TableIVResult carries the census report.
type TableIVResult struct {
	Report *census.Report
}

// TableIV runs the full census: population generation, ladder probing of
// every server, special-case detection, classification with the Unsure
// rule, and aggregation in the paper's layout.
func TableIV(ctx *Context) (*TableIVResult, error) {
	model, err := ctx.Model()
	if err != nil {
		return nil, err
	}
	pop, probeSeed := census.Campaign(ctx.CensusServers, ctx.Seed)
	report := census.Run(pop, core.NewIdentifier(model), ctx.DB, probeSeed)
	return &TableIVResult{Report: report}, nil
}

// String renders Table IV plus the ground-truth check the paper could not
// perform (we know the simulated truth).
func (r *TableIVResult) String() string {
	var b strings.Builder
	b.WriteString("Table IV: identification results of Web servers\n")
	b.WriteString(r.Report.TableIV())
	fmt.Fprintf(&b, "ground-truth agreement on ordinary valid traces: %.2f%%\n", r.Report.Accuracy()*100)
	return b.String()
}

// ClassifierComparison reproduces the paper's Weka classifier comparison:
// random forest against k-NN, naive Bayes, and a single decision tree on a
// held-out split of the training set (random forest should win).
func ClassifierComparison(ctx *Context) (map[string]float64, string, error) {
	ds, err := ctx.TrainingSet()
	if err != nil {
		return nil, "", err
	}
	train, test := ml.Split(ds, 0.3, ctx.rng(444))
	classifiers := []ml.Classifier{
		forest.Train(train, forest.Config{Trees: 80, Subspace: 4, Seed: ctx.Seed + 5}),
		ml.NewKNN(train, 5),
		ml.NewNaiveBayes(train),
		ml.NewSingleTree(train, ctx.Seed+6),
		ml.NewMLP(train, ml.MLPConfig{Seed: ctx.Seed + 7}),
		ml.NewLinearSVM(train, ml.SVMConfig{Seed: ctx.Seed + 8}),
	}
	acc := make(map[string]float64, len(classifiers))
	var b strings.Builder
	b.WriteString("Classifier comparison (held-out 30% split)\n")
	for _, c := range classifiers {
		a := ml.Evaluate(c, test)
		acc[c.Name()] = a
		fmt.Fprintf(&b, "  %-14s %.2f%%\n", c.Name(), a*100)
	}
	return acc, b.String(), nil
}
