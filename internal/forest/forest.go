package forest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/engine"
)

// Sample is one labeled feature vector.
type Sample struct {
	Features []float64
	Label    string
}

// Dataset is a set of labeled samples with a stable class index.
type Dataset struct {
	samples []Sample
	classes []string
	index   map[string]int
}

// ErrEmptyDataset reports training on no data.
var ErrEmptyDataset = errors.New("forest: empty dataset")

// NewDataset builds a dataset from samples (copied shallowly; callers must
// not mutate the feature slices afterwards).
func NewDataset(samples []Sample) (*Dataset, error) {
	if len(samples) == 0 {
		return nil, ErrEmptyDataset
	}
	dims := len(samples[0].Features)
	set := map[string]bool{}
	for _, s := range samples {
		if len(s.Features) != dims {
			return nil, fmt.Errorf("forest: inconsistent feature count: %d vs %d", len(s.Features), dims)
		}
		set[s.Label] = true
	}
	classes := make([]string, 0, len(set))
	for c := range set {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	index := make(map[string]int, len(classes))
	for i, c := range classes {
		index[c] = i
	}
	ds := &Dataset{samples: samples, classes: classes, index: index}
	return ds, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.samples) }

// Classes returns the sorted class labels.
func (d *Dataset) Classes() []string {
	out := make([]string, len(d.classes))
	copy(out, d.classes)
	return out
}

// Samples returns the underlying samples (read-only by convention).
func (d *Dataset) Samples() []Sample { return d.samples }

// Subset returns a dataset view containing the given sample indices but
// sharing the full class index (so confusion matrices stay aligned).
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := make([]Sample, len(idx))
	for i, j := range idx {
		sub[i] = d.samples[j]
	}
	return &Dataset{samples: sub, classes: d.classes, index: d.index}
}

// Config holds the two random forest parameters the paper tunes in
// Fig. 12: K (number of trees) and F (random subspace size), plus the
// training seed.
type Config struct {
	// Trees is the paper's K; CAAI uses 80.
	Trees int
	// Subspace is the paper's F, the features considered per split;
	// CAAI uses 4 (Weka's default log2(7)+1 rounds to the same choice).
	Subspace int
	// MinLeaf stops splitting below this many samples (1 = grow fully,
	// no pruning, as the paper specifies).
	MinLeaf int
	// Seed makes training deterministic.
	Seed int64
	// Parallelism bounds concurrent tree construction; 0 means
	// GOMAXPROCS.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 80
	}
	if c.Subspace <= 0 {
		c.Subspace = 4
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// leafMarker in the feature array marks a leaf node.
const leafMarker = int32(-1)

// Forest is a trained random forest. Safe for concurrent classification.
//
// All trees live in one contiguous structure-of-arrays arena laid out in
// level order (breadth-first per tree): node i splits on feat[i] at thr[i]
// with children kids[2i] and kids[2i+1] (absolute node indices), or is a
// leaf voting labels[i] when feat[i] < 0. Tree t occupies nodes
// [starts[t], starts[t+1]) with its root at starts[t]. The flat layout
// keeps the whole model in a handful of allocations and turns the per-tree
// walk into branchy-but-local slice indexing instead of pointer chasing
// across 80 separately allocated node slices.
type Forest struct {
	classes []string
	// width is the feature-vector length the trees index into; VotesInto
	// refuses shorter inputs so a corrupt model or caller cannot panic
	// the classification hot path.
	width int

	feat   []int32
	thr    []float64
	kids   []int32
	labels []int32
	starts []int32
}

// flatten fuses per-tree node slices into the arena, re-laying every tree
// in level order (breadth-first). Classifications are bit-identical to a
// depth-first layout -- only node order changes -- and Save accepts any
// children-after-parent order, so persistence still round-trips exactly.
// Nodes unreachable from a tree's root (possible only in hand-crafted
// model files; the builder never produces them) are dropped, which cannot
// change any classification.
func flatten(classes []string, width int, trees [][]treeNode) *Forest {
	// Pass 1: breadth-first order per tree. orders[t] lists tree-local
	// node ids in visit order; pos maps node id -> BFS position within
	// its tree.
	maxTree := 0
	for _, nodes := range trees {
		if len(nodes) > maxTree {
			maxTree = len(nodes)
		}
	}
	orders := make([][]int32, len(trees))
	pos := make([]int32, maxTree)
	total := 0
	for t, nodes := range trees {
		order := make([]int32, 0, len(nodes))
		order = append(order, 0)
		pos[0] = 0
		for k := 0; k < len(order); k++ {
			n := &nodes[order[k]]
			if n.leaf {
				continue
			}
			pos[n.left] = int32(len(order))
			order = append(order, n.left)
			pos[n.right] = int32(len(order))
			order = append(order, n.right)
		}
		orders[t] = order
		total += len(order)

		// Pass 2 (interleaved per tree would clobber pos): record the
		// positions now while pos is valid for this tree, by rewriting
		// each node's children to BFS positions in place of ids.
		for _, j := range order {
			n := &nodes[j]
			if !n.leaf {
				n.left, n.right = pos[n.left], pos[n.right]
			}
		}
	}
	f := &Forest{
		classes: classes,
		width:   width,
		feat:    make([]int32, total),
		thr:     make([]float64, total),
		kids:    make([]int32, 2*total),
		labels:  make([]int32, total),
		starts:  make([]int32, len(trees)+1),
	}
	off := int32(0)
	for t, nodes := range trees {
		f.starts[t] = off
		for k, j := range orders[t] {
			i := off + int32(k)
			n := &nodes[j]
			if n.leaf {
				f.feat[i] = leafMarker
				f.labels[i] = int32(n.label)
				continue
			}
			f.feat[i] = int32(n.feature)
			f.thr[i] = n.threshold
			f.kids[2*i] = off + n.left
			f.kids[2*i+1] = off + n.right
		}
		off += int32(len(orders[t]))
	}
	f.starts[len(trees)] = off
	return f
}

// NumTrees returns the number of trees in the forest.
func (f *Forest) NumTrees() int { return len(f.starts) - 1 }

// NumClasses returns the number of classes the forest votes over.
func (f *Forest) NumClasses() int { return len(f.classes) }

// Train grows cfg.Trees trees on bootstrap samples of ds, each split drawn
// from a random subspace of cfg.Subspace features. Tree construction runs
// in parallel but is deterministic for a fixed seed.
func Train(ds *Dataset, cfg Config) *Forest {
	cfg = cfg.withDefaults()
	n := ds.Len()
	features := make([][]float64, n)
	labels := make([]int, n)
	for i, s := range ds.samples {
		features[i] = s.Features
		labels[i] = ds.index[s.Label]
	}

	trees := make([][]treeNode, cfg.Trees)
	engine.Run(cfg.Trees, cfg.Parallelism, func(t int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n) // bootstrap: sample with replacement
		}
		b := &treeBuilder{
			features: features,
			labels:   labels,
			classes:  len(ds.classes),
			subspace: cfg.Subspace,
			minLeaf:  cfg.MinLeaf,
			rng:      rng,
		}
		trees[t] = b.build(idx)
	})
	width := 0
	if n > 0 {
		width = len(ds.samples[0].Features)
	}
	return flatten(ds.classes, width, trees)
}

// Classes returns the class labels the forest can emit, indexed like the
// vote vectors. The returned slice is a shared immutable view into the
// model -- callers must not modify it. (It used to be copied defensively,
// which made every label lookup on the service hot path allocate; see
// TestForestClassesImmutableView / TestClassesZeroAllocs.)
func (f *Forest) Classes() []string { return f.classes }

// votePool recycles vote buffers so Classify (the classify.Classifier
// entry point, whose signature cannot take scratch) is allocation-free in
// steady state. Buffers hold *[]int to keep Put/Get off the heap.
var votePool = sync.Pool{New: func() any { return new([]int) }}

// Classify returns the majority-vote label and its confidence (the
// fraction of trees voting for it). Steady-state allocation-free: vote
// buffers come from an internal pool.
func (f *Forest) Classify(features []float64) (string, float64) {
	bp := votePool.Get().(*[]int)
	label, conf, votes := f.ClassifyBuf(features, *bp)
	*bp = votes
	votePool.Put(bp)
	return label, conf
}

// ClassifyBuf is Classify with caller-owned vote scratch: votes is resized
// (and reallocated only if too small) and returned for reuse, so tight
// loops classify with zero allocations.
func (f *Forest) ClassifyBuf(features []float64, votes []int) (string, float64, []int) {
	votes = f.VotesInto(votes, features)
	best, bestN := 0, -1
	for c, n := range votes {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return f.classes[best], float64(bestN) / float64(f.NumTrees()), votes
}

// Votes returns the per-class vote counts, indexed like Classes(). A
// vector shorter than the trained feature width gets zero votes across
// the board (and so classifies at zero confidence) instead of panicking
// mid-walk on an out-of-range feature index.
func (f *Forest) Votes(features []float64) []int {
	return f.VotesInto(nil, features)
}

// VotesInto tallies the per-class votes into dst and returns it, resized
// to the class count (reallocating only when dst is too small). It is the
// zero-allocation core of Votes/Classify: one flat walk over the arena per
// tree, no per-call slice churn. See Votes for the short-vector contract.
func (f *Forest) VotesInto(dst []int, features []float64) []int {
	n := len(f.classes)
	if cap(dst) < n {
		dst = make([]int, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = 0
	}
	if f.width > 0 && len(features) < f.width {
		return dst
	}
	for t := 0; t < len(f.starts)-1; t++ {
		i := f.starts[t]
		for {
			fi := f.feat[i]
			if fi < 0 {
				dst[f.labels[i]]++
				break
			}
			if features[fi] <= f.thr[i] {
				i = f.kids[2*i]
			} else {
				i = f.kids[2*i+1]
			}
		}
	}
	return dst
}
