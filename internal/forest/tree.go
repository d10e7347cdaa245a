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
package forest

import (
	"math"
	"math/rand"
	"sort"
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

// treeBuilder grows one tree from a bootstrap sample.
type treeBuilder struct {
	features [][]float64 // row-major: features[sample][dim]
	labels   []int
	classes  int
	subspace int
	rng      *rand.Rand
	nodes    []treeNode
}

// build grows the tree on the given sample indices and returns its nodes
// (root at index 0).
func (b *treeBuilder) build(idx []int) []treeNode {
	b.nodes = b.nodes[:0]
	b.grow(idx)
	nodes := make([]treeNode, len(b.nodes))
	copy(nodes, b.nodes)
	return nodes
}

// grow recursively grows a subtree on idx and returns its root node index.
func (b *treeBuilder) grow(idx []int) int32 {
	counts := make([]int, b.classes)
	for _, i := range idx {
		counts[b.labels[i]]++
	}
	major, pure := majority(counts, len(idx))
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, treeNode{leaf: true, label: major})
	// Trees grow fully, unpruned, as the paper specifies: only a pure
	// node or a single sample stops splitting.
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

// bestSplit evaluates a random subspace of features and returns the split
// with the lowest weighted Gini impurity.
func (b *treeBuilder) bestSplit(idx []int, counts []int) (feature int, threshold float64, ok bool) {
	dims := len(b.features[0])
	perm := b.rng.Perm(dims)
	k := b.subspace
	if k > dims {
		k = dims
	}
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
				continue // can't split between equal values
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
