// Package forest implements the Breiman random forest CAAI uses for
// algorithm classification: CART trees grown without pruning on bootstrap
// samples, with a random subspace of F features considered at every split,
// majority voting, and a vote-share confidence (the paper's "classification
// confidence level"). It also provides k-fold cross validation and
// confusion matrices for Table III and Fig. 12.
//
// Trained trees are not stored as individual node objects: Train and Load
// fuse all trees into one contiguous structure-of-arrays arena (see
// forest.go), so classification walks flat parallel slices instead of
// chasing per-tree heap pointers. This file holds the tree *builder*, which
// still grows one tree at a time into a temporary node slice.
//
// The builder searches splits over presorted orders (DESIGN.md §5.5): the
// samples are sorted once per feature per Train, each tree filters those
// orders down to its bootstrap sample, and every split stably partitions
// the orders instead of re-sorting the node's samples on every candidate
// feature. The trees are bit-identical to the sort-per-node builder's,
// which the package tests keep as their oracle (referenceBuild).
package forest

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// treeNode is one node of a tree under construction. It only lives inside
// the builder; finished trees are flattened into the forest arena.
type treeNode struct {
	// feature/threshold define an internal node's split: samples with
	// features[feature] <= threshold go left.
	feature   int
	threshold float64
	left      int32
	right     int32
	// leaf marks terminal nodes; label is the majority class index.
	leaf  bool
	label int
}

// presorted is the read-only view of a training set that every tree of
// one Train shares: the features column by column, and per feature the
// sample ids in ascending order of that feature.
type presorted struct {
	cols    [][]float64 // cols[f][i] is feature f of sample i
	labels  []int
	classes int
	// sorted[f] lists every sample id by ascending cols[f]; the order
	// among equal values is arbitrary (see bestSplit). With no features
	// there is nothing to sort by, and sorted holds one row listing the
	// samples, so a tree still knows its members.
	sorted [][]int32
}

// presort builds the shared view of row-major features.
func presort(features [][]float64, labels []int, classes int) *presorted {
	n, dims := len(features), 0
	if n > 0 {
		dims = len(features[0])
	}
	ps := &presorted{cols: make([][]float64, dims), labels: labels, classes: classes}
	flat := make([]float64, dims*n)
	for f := range ps.cols {
		ps.cols[f] = flat[f*n : (f+1)*n]
	}
	for i, row := range features {
		for f, v := range row {
			ps.cols[f][i] = v
		}
	}
	rows := max(dims, 1)
	ps.sorted = make([][]int32, rows)
	ids := make([]int32, rows*n)
	for f := range ps.sorted {
		order := ids[f*n : (f+1)*n]
		for i := range order {
			order[i] = int32(i)
		}
		if f < dims {
			col := ps.cols[f]
			slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		}
		ps.sorted[f] = order
	}
	return ps
}

// treeBuilder grows trees on bootstrap samples of a presorted training
// set. Its scratch is reused across the trees one worker grows; a builder
// is not safe for concurrent use.
type treeBuilder struct {
	ps       *presorted
	subspace int
	rng      *rand.Rand

	// weight[i] is how many times the bootstrap drew sample i.
	weight []int
	// order[f] lists the tree's distinct samples by ascending feature f.
	// A node owns the same range [lo, hi) of every order: the samples
	// that reach it.
	order [][]int32
	// goLeft[i] records the side sample i takes at the split being
	// applied; spill holds one order's right side while it is stably
	// partitioned.
	goLeft []bool
	spill  []int32

	counts, leftCounts, rightCounts []int
	perm                            []int
	nodes                           []treeNode
}

// newTreeBuilder returns a builder over ps trying subspace features per
// split.
func newTreeBuilder(ps *presorted, subspace int) *treeBuilder {
	n := len(ps.labels)
	b := &treeBuilder{
		ps:          ps,
		subspace:    subspace,
		rng:         rand.New(rand.NewSource(0)),
		weight:      make([]int, n),
		order:       make([][]int32, len(ps.sorted)),
		goLeft:      make([]bool, n),
		spill:       make([]int32, n),
		counts:      make([]int, ps.classes),
		leftCounts:  make([]int, ps.classes),
		rightCounts: make([]int, ps.classes),
		perm:        make([]int, len(ps.cols)),
	}
	ids := make([]int32, len(ps.sorted)*n)
	for f := range b.order {
		b.order[f] = ids[f*n : f*n : (f+1)*n]
	}
	return b
}

// build grows one tree on the bootstrap sample drawn from seed's stream
// (math/rand, the stream rand.New(rand.NewSource(seed)) draws) and
// returns its nodes, root at index 0.
func (b *treeBuilder) build(seed int64) []treeNode {
	b.rng.Seed(seed)
	n := len(b.weight)
	clear(b.weight)
	for i := 0; i < n; i++ {
		b.weight[b.rng.Intn(n)]++ // bootstrap: sample with replacement
	}
	m := 0
	for f, all := range b.ps.sorted {
		order := b.order[f][:0]
		for _, id := range all {
			if b.weight[id] > 0 {
				order = append(order, id)
			}
		}
		b.order[f], m = order, len(order)
	}
	b.nodes = b.nodes[:0]
	b.grow(0, m)
	return slices.Clone(b.nodes)
}

// grow recursively grows the subtree on the samples in [lo, hi) of every
// order and returns its root node index. Subtrees grow left first, so the
// per-node subspace draws come in the same order as the node indices.
func (b *treeBuilder) grow(lo, hi int) int32 {
	counts := b.counts
	clear(counts)
	total := 0
	for _, id := range b.order[0][lo:hi] {
		draws := b.weight[id]
		counts[b.ps.labels[id]] += draws
		total += draws
	}
	major, pure := majority(counts, total)
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, treeNode{leaf: true, label: major})
	// Trees grow fully, unpruned, as the paper specifies: only a pure
	// node or a single sample stops splitting.
	if pure || total <= 1 {
		return self
	}

	feat, thr, ok := b.bestSplit(lo, hi, total)
	if !ok {
		return self
	}
	mid := b.partition(lo, hi, feat, thr)
	if mid == lo || mid == hi {
		return self
	}
	l := b.grow(lo, mid)
	r := b.grow(mid, hi)
	b.nodes[self] = treeNode{feature: feat, threshold: thr, left: l, right: r}
	return self
}

// majority returns the most frequent class and whether the set is pure.
func majority(counts []int, total int) (label int, pure bool) {
	best := -1
	for c, n := range counts {
		if n > best {
			best = n
			label = c
		}
	}
	return label, best == total
}

// bestSplit evaluates a random subspace of features on the node's samples
// [lo, hi), total bootstrap draws whose class counts are in b.counts, and
// returns the split with the lowest weighted Gini impurity.
//
// Each candidate feature's order is already sorted, so the scan walks it
// once, adding every sample's bootstrap weight to the left side. Only the
// boundaries between distinct values are split candidates, and at each
// one the left side holds every draw with a value at or below it whatever
// order equal values sit in -- so the counts, the impurity expression and
// the strict-improvement tie-break match a scan over the draws sorted
// individually, split for split.
func (b *treeBuilder) bestSplit(lo, hi, total int) (feature int, threshold float64, ok bool) {
	dims := len(b.ps.cols)
	perm := b.permute(dims)
	k := min(b.subspace, dims)
	parent := gini(b.counts, total)
	bestGain := 1e-12
	leftCounts, rightCounts := b.leftCounts, b.rightCounts
	for _, f := range perm[:k] {
		col := b.ps.cols[f]
		order := b.order[f][lo:hi]
		clear(leftCounts)
		copy(rightCounts, b.counts)
		nl := 0
		for j := 0; j < len(order)-1; j++ {
			id := order[j]
			lab, draws := b.ps.labels[id], b.weight[id]
			leftCounts[lab] += draws
			rightCounts[lab] -= draws
			nl += draws
			v, next := col[id], col[order[j+1]]
			if v == next {
				continue // can't split between equal values
			}
			nr := total - nl
			w := (float64(nl)*gini(leftCounts, nl) + float64(nr)*gini(rightCounts, nr)) / float64(total)
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

// permute is rand.Perm(n) drawn into the builder's scratch: the same Intn
// draws in the same order, so the subspaces match rand.Perm's, without an
// allocation per node.
func (b *treeBuilder) permute(n int) []int {
	m := b.perm[:n]
	for i := 0; i < n; i++ {
		j := b.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// partition applies the split feat <= thr to the node's samples [lo, hi):
// it stably moves the samples that go left to the front of every order
// and returns the index where the right side starts. When one side would
// be empty it returns lo or hi without touching the orders.
func (b *treeBuilder) partition(lo, hi, feat int, thr float64) int {
	col := b.ps.cols[feat]
	nl := 0
	for _, id := range b.order[feat][lo:hi] {
		left := col[id] <= thr
		b.goLeft[id] = left
		if left {
			nl++
		}
	}
	if nl == 0 || nl == hi-lo {
		return lo + nl
	}
	for f, all := range b.order {
		if f == feat {
			continue // sorted by the split feature: its left side is already the prefix
		}
		order := all[lo:hi]
		l, r := 0, 0
		for _, id := range order {
			if b.goLeft[id] {
				order[l] = id
				l++
			} else {
				b.spill[r] = id
				r++
			}
		}
		copy(order[l:], b.spill[:r])
	}
	return lo + nl
}

// gini computes the Gini impurity of a class count vector.
func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	sum := 0.0
	ft := float64(total)
	for _, n := range counts {
		p := float64(n) / ft
		sum += p * p
	}
	return 1 - sum
}

// sanity guard referenced by tests; NaN thresholds must never appear.
func validThreshold(t float64) bool { return !math.IsNaN(t) && !math.IsInf(t, 0) }
