package forest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceBuilder is the tree builder as it was before splits were
// searched over presorted orders: the bootstrap sample is a list of draws,
// and every node sorts its draws on every candidate feature. It is the
// oracle the presorted builder must match node for node.
type referenceBuilder struct {
	features [][]float64 // row-major: features[sample][dim]
	labels   []int
	classes  int
	subspace int
	rng      *rand.Rand
	nodes    []treeNode
}

// referenceBuild grows one tree on the bootstrap sample drawn from seed,
// as Train seeds tree t with cfg.Seed + t*7919.
func referenceBuild(features [][]float64, labels []int, classes, subspace int, seed int64) []treeNode {
	rng := rand.New(rand.NewSource(seed))
	n := len(features)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(n) // bootstrap: sample with replacement
	}
	b := &referenceBuilder{features: features, labels: labels, classes: classes, subspace: subspace, rng: rng}
	b.grow(idx)
	return b.nodes
}

func (b *referenceBuilder) grow(idx []int) int32 {
	counts := make([]int, b.classes)
	for _, i := range idx {
		counts[b.labels[i]]++
	}
	major, pure := majority(counts, len(idx))
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, treeNode{leaf: true, label: major})
	if pure || len(idx) <= 1 {
		return self
	}
	feat, thr, ok := b.bestSplit(idx, counts)
	if !ok {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if b.features[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return self
	}
	l := b.grow(left)
	r := b.grow(right)
	b.nodes[self] = treeNode{feature: feat, threshold: thr, left: l, right: r}
	return self
}

func (b *referenceBuilder) bestSplit(idx []int, counts []int) (feature int, threshold float64, ok bool) {
	dims := len(b.features[0])
	perm := b.rng.Perm(dims)
	k := min(b.subspace, dims)
	parent := gini(counts, len(idx))
	bestGain := 1e-12
	sorted := make([]int, len(idx))
	leftCounts := make([]int, b.classes)
	rightCounts := make([]int, b.classes)
	for _, f := range perm[:k] {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, c int) bool {
			return b.features[sorted[a]][f] < b.features[sorted[c]][f]
		})
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		copy(rightCounts, counts)
		n := len(sorted)
		for i := 0; i < n-1; i++ {
			lab := b.labels[sorted[i]]
			leftCounts[lab]++
			rightCounts[lab]--
			v, next := b.features[sorted[i]][f], b.features[sorted[i+1]][f]
			if v == next {
				continue
			}
			nl, nr := i+1, n-i-1
			w := (float64(nl)*gini(leftCounts, nl) + float64(nr)*gini(rightCounts, nr)) / float64(n)
			if gain := parent - w; gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (v + next) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// sameTree reports where two trees' node slices first differ, thresholds
// compared bit for bit; "" means identical.
func sameTree(got, want []treeNode) string {
	if len(got) != len(want) {
		return "node counts differ"
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.leaf != w.leaf || g.label != w.label || g.feature != w.feature ||
			g.left != w.left || g.right != w.right ||
			math.Float64bits(g.threshold) != math.Float64bits(w.threshold) {
			return fmt.Sprintf("node %d differs", i)
		}
	}
	return ""
}

// fuzzSpecials are the values a fuzzed feature takes when its byte has
// the high bit set: signed zeros, adjacent floats whose midpoint rounds
// onto the lower or the upper one (so the split predicate and the scan's
// boundary disagree), and magnitudes whose midpoint sum overflows.
var fuzzSpecials = []float64{
	0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2), -1, 0.5,
	1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 3,
}

// fuzzDataset decodes a small tie-heavy dataset: byte 0 picks 1-8
// dimensions, byte 1 1-15 classes, byte 2 a subspace of 1 to the
// dimension count, and each following record is a label byte (high bit
// set: repeat the previous row's features) and one byte per feature
// (high bit clear: one of five small integers).
func fuzzDataset(data []byte) (features [][]float64, labels []int, classes, subspace int) {
	if len(data) < 3 {
		return nil, nil, 0, 0
	}
	dims := 1 + int(data[0])%8
	classes = 1 + int(data[1])%15
	subspace = 1 + int(data[2])%dims
	for rec := data[3:]; len(rec) >= dims+1 && len(features) < 256; rec = rec[dims+1:] {
		row := make([]float64, dims)
		if rec[0]&0x80 != 0 && len(features) > 0 {
			copy(row, features[len(features)-1])
		} else {
			for f, c := range rec[1 : dims+1] {
				if c&0x80 != 0 {
					row[f] = fuzzSpecials[int(c&0x7f)%len(fuzzSpecials)]
				} else {
					row[f] = float64(c % 5)
				}
			}
		}
		features = append(features, row)
		labels = append(labels, int(rec[0]&0x7f)%classes)
	}
	return features, labels, classes, subspace
}

// FuzzTreeMatchesReference: on any small finite dataset -- heavy ties,
// duplicate rows, every dimension and subspace size -- the presorted
// builder grows the reference builder's trees node for node, threshold
// bits included, across several trees on one reused builder.
func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{2, 2, 1, 0, 1, 2, 1, 3, 4, 0, 0, 0, 1, 1, 1}, int64(1))
	f.Add([]byte{7, 14, 3, 0, 1, 2, 3, 4, 0, 1, 2, 3, 5, 4, 3, 2, 1, 0, 4, 3, 2, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1, 1, 1, 1, 1, 1, 1, 1}, int64(7))
	f.Add([]byte{0, 1, 0, 0, 0x82, 1, 0x83, 0, 0x82, 1, 0x83, 2, 0x86, 3, 0x88}, int64(-3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		features, labels, classes, subspace := fuzzDataset(data)
		if len(features) == 0 {
			return
		}
		b := newTreeBuilder(presort(features, labels, classes), subspace)
		for tree := int64(0); tree < 3; tree++ {
			s := seed + tree*7919
			got, want := b.build(s), referenceBuild(features, labels, classes, subspace, s)
			if diff := sameTree(got, want); diff != "" {
				t.Fatalf("tree %d (seed %d, %d samples, subspace %d): %s\ngot  %+v\nwant %+v",
					tree, s, len(features), subspace, diff, got, want)
			}
		}
	})
}

// TestTrainMatchesReference: Train's forests -- per-tree seeds, builders
// reused across trees on each worker, the arena -- are byte for byte the
// forests of reference-built trees, on continuous and on rounded,
// tie-heavy data, at every subspace size and worker count.
func TestTrainMatchesReference(t *testing.T) {
	ds := clusterDataset(t, 60, 31)
	rounded := make([]Sample, ds.Len())
	for i, s := range ds.Samples() {
		f := make([]float64, len(s.Features))
		for d, v := range s.Features {
			f[d] = math.Round(v / 3)
		}
		rounded[i] = Sample{Features: f, Label: s.Label}
	}
	tied, err := NewDataset(rounded)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []*Dataset{ds, tied} {
		features := make([][]float64, data.Len())
		labels := make([]int, data.Len())
		for i, s := range data.Samples() {
			features[i], labels[i] = s.Features, data.index[s.Label]
		}
		for subspace := 1; subspace <= 3; subspace++ {
			for _, workers := range []int{1, 3} {
				cfg := Config{Trees: 12, Subspace: subspace, Seed: 41, Parallelism: workers}
				var got, want bytes.Buffer
				if err := Train(data, cfg).Save(&got); err != nil {
					t.Fatal(err)
				}
				trees := make([][]treeNode, cfg.Trees)
				for tr := range trees {
					trees[tr] = referenceBuild(features, labels, len(data.classes), subspace, cfg.Seed+int64(tr)*7919)
				}
				if err := flatten(data.classes, 3, trees).Save(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("subspace %d, %d workers: Train differs from the reference trees", subspace, workers)
				}
			}
		}
	}
}
