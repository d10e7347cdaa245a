package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/classify"
)

// BackendName is the name the forest reports through classify.Classifier
// and under which saved models are tagged.
const BackendName = "RandomForest"

// Name implements classify.Classifier, making a trained forest usable
// anywhere the pipeline accepts a pluggable backend.
func (f *Forest) Name() string { return BackendName }

var _ classify.Classifier = (*Forest)(nil)

// The JSON document layout. Node fields are flattened into parallel arrays
// per tree: compact, fast to decode, and stable under gofmt-style diffing.
// The on-disk format is unchanged by the in-memory arena: Save emits the
// same per-tree arrays as before, Load flattens them into the arena.
type forestDoc struct {
	Version int      `json:"version"`
	Classes []string `json:"classes"`
	// Features is the feature-vector width the trees index into. Older
	// files omit it (0): Load then derives the width from the largest
	// split index, so classification stays bounds-safe either way.
	Features int       `json:"features,omitempty"`
	Trees    []treeDoc `json:"trees"`
}

type treeDoc struct {
	// Feature[i] < 0 marks node i as a leaf whose class is Label[i];
	// otherwise node i splits on Feature[i] at Threshold[i] with children
	// Left[i] / Right[i].
	Feature   []int     `json:"feature"`
	Threshold []float64 `json:"threshold"`
	Left      []int32   `json:"left"`
	Right     []int32   `json:"right"`
	Label     []int     `json:"label"`
}

// persistVersion guards the forest payload layout inside the envelope.
const persistVersion = 1

// Save serializes the trained forest to w as JSON. The written model
// reproduces the in-memory forest's classifications exactly: tree
// structure, thresholds, and class order are preserved bit-for-bit.
func (f *Forest) Save(w io.Writer) error {
	nt := f.NumTrees()
	doc := forestDoc{Version: persistVersion, Classes: f.classes, Features: f.width, Trees: make([]treeDoc, nt)}
	for t := 0; t < nt; t++ {
		lo := f.starts[t]
		n := int(f.starts[t+1] - lo)
		td := treeDoc{
			Feature:   make([]int, n),
			Threshold: make([]float64, n),
			Left:      make([]int32, n),
			Right:     make([]int32, n),
			Label:     make([]int, n),
		}
		for j := 0; j < n; j++ {
			i := lo + int32(j)
			if f.feat[i] < 0 {
				td.Feature[j] = -1
				td.Label[j] = int(f.labels[i])
				continue
			}
			td.Feature[j] = int(f.feat[i])
			td.Threshold[j] = f.thr[i]
			td.Left[j] = f.kids[2*i] - lo
			td.Right[j] = f.kids[2*i+1] - lo
		}
		doc.Trees[t] = td
	}
	return json.NewEncoder(w).Encode(doc)
}

// Load deserializes a forest previously written by Save, flattening the
// per-tree node arrays into the classification arena.
func Load(r io.Reader) (*Forest, error) {
	var doc forestDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("forest: decoding model: %w", err)
	}
	if doc.Version != persistVersion {
		return nil, fmt.Errorf("forest: unsupported model version %d (want %d)", doc.Version, persistVersion)
	}
	if len(doc.Classes) == 0 || len(doc.Trees) == 0 {
		return nil, fmt.Errorf("forest: model has %d classes and %d trees", len(doc.Classes), len(doc.Trees))
	}
	if doc.Features < 0 {
		return nil, fmt.Errorf("forest: negative feature width %d", doc.Features)
	}
	total := 0
	for i, td := range doc.Trees {
		n := len(td.Feature)
		if len(td.Threshold) != n || len(td.Left) != n || len(td.Right) != n || len(td.Label) != n {
			return nil, fmt.Errorf("forest: tree %d has inconsistent node arrays", i)
		}
		if n == 0 {
			return nil, fmt.Errorf("forest: tree %d is empty", i)
		}
		total += n
	}
	maxFeature := -1
	trees := make([][]treeNode, len(doc.Trees))
	for i, td := range doc.Trees {
		n := len(td.Feature)
		nodes := make([]treeNode, n)
		for j := 0; j < n; j++ {
			if td.Feature[j] < 0 {
				if td.Label[j] < 0 || td.Label[j] >= len(doc.Classes) {
					return nil, fmt.Errorf("forest: tree %d node %d: label %d out of range", i, j, td.Label[j])
				}
				nodes[j] = treeNode{leaf: true, label: td.Label[j]}
				continue
			}
			if doc.Features > 0 && td.Feature[j] >= doc.Features {
				return nil, fmt.Errorf("forest: tree %d node %d: feature %d out of range (width %d)", i, j, td.Feature[j], doc.Features)
			}
			if td.Feature[j] > maxFeature {
				maxFeature = td.Feature[j]
			}
			if int(td.Left[j]) >= n || int(td.Right[j]) >= n {
				return nil, fmt.Errorf("forest: tree %d node %d: child index out of range", i, j)
			}
			// The builder always places children after their parent, so
			// child <= parent means a corrupt (possibly cyclic) layout
			// that would make classification loop forever.
			if td.Left[j] <= int32(j) || td.Right[j] <= int32(j) {
				return nil, fmt.Errorf("forest: tree %d node %d: child index not after parent", i, j)
			}
			nodes[j] = treeNode{
				feature:   td.Feature[j],
				threshold: td.Threshold[j],
				left:      td.Left[j],
				right:     td.Right[j],
			}
		}
		trees[i] = nodes
	}
	width := doc.Features
	if width == 0 {
		// Legacy file without a declared width: the largest split index
		// bounds what classification will dereference.
		width = maxFeature + 1
	}
	// flatten re-lays the trees in level order exactly as Train does, so
	// loaded and freshly trained models share one in-memory representation.
	return flatten(doc.Classes, width, trees), nil
}

// SaveFile writes the forest to path.
func (f *Forest) SaveFile(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Save(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// LoadFile reads a forest from path.
func LoadFile(path string) (*Forest, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return Load(r)
}

// codec adapts Save/Load to the classify.Codec registry so envelope-tagged
// model files round-trip through classify.Save / classify.Load.
type codec struct{}

func (codec) Backend() string { return BackendName }

func (codec) Encode(w io.Writer, c classify.Classifier) error {
	f, ok := c.(*Forest)
	if !ok {
		return fmt.Errorf("forest: codec cannot encode %T", c)
	}
	return f.Save(w)
}

func (codec) Decode(r io.Reader) (classify.Classifier, error) { return Load(r) }

func init() { classify.RegisterCodec(codec{}) }
