package ml

import (
	"math"
	"math/rand"

	"repro/internal/forest"
)

// MLP is a one-hidden-layer neural network trained with plain SGD and
// softmax cross-entropy -- the "Artificial Neural Network" entry of the
// paper's Weka classifier comparison. Features are standardized per
// dimension before training.
type MLP struct {
	classes []string
	mean    []float64
	std     []float64
	// w1[h][d], b1[h]; w2[c][h], b2[c]
	w1 [][]float64
	b1 []float64
	w2 [][]float64
	b2 []float64
}

var _ Classifier = (*MLP)(nil)

// MLPConfig tunes training.
type MLPConfig struct {
	// Seed makes training deterministic.
	Seed int64
}

// The MLP's hidden layer width, SGD passes and SGD step.
const (
	mlpHidden       = 16
	mlpEpochs       = 60
	mlpLearningRate = 0.05
)

// NewMLP trains an MLP on ds.
func NewMLP(ds *forest.Dataset, cfg MLPConfig) *MLP {
	samples := ds.Samples()
	classes := ds.Classes()
	index := make(map[string]int, len(classes))
	for i, c := range classes {
		index[c] = i
	}
	dims := len(samples[0].Features)

	m := &MLP{classes: classes}
	m.mean, m.std = standardize(samples, dims)

	rng := rand.New(rand.NewSource(cfg.Seed))
	m.w1 = randMatrix(rng, mlpHidden, dims, math.Sqrt(2/float64(dims)))
	m.b1 = make([]float64, mlpHidden)
	m.w2 = randMatrix(rng, len(classes), mlpHidden, math.Sqrt(2/float64(mlpHidden)))
	m.b2 = make([]float64, len(classes))

	order := rng.Perm(len(samples))
	hidden := make([]float64, mlpHidden)
	logits := make([]float64, len(classes))
	probs := make([]float64, len(classes))
	for epoch := 0; epoch < mlpEpochs; epoch++ {
		for _, i := range order {
			s := samples[i]
			x := m.normalize(s.Features)
			m.forward(x, hidden, logits)
			softmax(logits, probs)
			target := index[s.Label]
			// Backprop: dL/dlogit = p - y.
			lr := mlpLearningRate
			for c := range probs {
				grad := probs[c]
				if c == target {
					grad--
				}
				for h, hv := range hidden {
					// Gradient into the hidden layer (pre-ReLU).
					if hv > 0 {
						delta := grad * m.w2[c][h] * lr
						for d := range x {
							m.w1[h][d] -= delta * x[d]
						}
						m.b1[h] -= delta
					}
					m.w2[c][h] -= lr * grad * hv
				}
				m.b2[c] -= lr * grad
			}
		}
	}
	return m
}

func standardize(samples []forest.Sample, dims int) (mean, std []float64) {
	mean = make([]float64, dims)
	std = make([]float64, dims)
	n := float64(len(samples))
	for _, s := range samples {
		for d, v := range s.Features {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= n
	}
	for _, s := range samples {
		for d, v := range s.Features {
			diff := v - mean[d]
			std[d] += diff * diff
		}
	}
	for d := range std {
		std[d] = math.Sqrt(std[d] / n)
		if std[d] < 1e-9 {
			std[d] = 1
		}
	}
	return mean, std
}

func randMatrix(rng *rand.Rand, rows, cols int, scale float64) [][]float64 {
	out := make([][]float64, rows)
	for r := range out {
		out[r] = make([]float64, cols)
		for c := range out[r] {
			out[r][c] = rng.NormFloat64() * scale
		}
	}
	return out
}

func (m *MLP) normalize(x []float64) []float64 {
	out := make([]float64, len(x))
	for d := range x {
		out[d] = (x[d] - m.mean[d]) / m.std[d]
	}
	return out
}

// forward fills hidden (ReLU) and logits.
func (m *MLP) forward(x, hidden, logits []float64) {
	for h := range m.w1 {
		sum := m.b1[h]
		for d, w := range m.w1[h] {
			sum += w * x[d]
		}
		if sum < 0 {
			sum = 0
		}
		hidden[h] = sum
	}
	for c := range m.w2 {
		sum := m.b2[c]
		for h, w := range m.w2[c] {
			sum += w * hidden[h]
		}
		logits[c] = sum
	}
}

func softmax(logits, probs []float64) {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for c, l := range logits {
		probs[c] = math.Exp(l - maxL)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
}

// Name implements Classifier.
func (*MLP) Name() string { return "NeuralNet" }

// Classify implements Classifier.
func (m *MLP) Classify(features []float64) (string, float64) {
	x := m.normalize(features)
	hidden := make([]float64, len(m.w1))
	logits := make([]float64, len(m.classes))
	probs := make([]float64, len(m.classes))
	m.forward(x, hidden, logits)
	softmax(logits, probs)
	best := 0
	for c := range probs {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return m.classes[best], probs[best]
}

// LinearSVM is a one-vs-rest linear support vector machine trained with
// hinge-loss SGD (Pegasos-style) -- the "SVM" entry of the paper's Weka
// comparison.
type LinearSVM struct {
	classes []string
	mean    []float64
	std     []float64
	w       [][]float64 // per class
	b       []float64
}

var _ Classifier = (*LinearSVM)(nil)

// SVMConfig tunes training.
type SVMConfig struct {
	// Seed makes training deterministic.
	Seed int64
}

// The SVM's SGD passes and regularization strength.
const (
	svmEpochs = 40
	svmLambda = 1e-4
)

// NewLinearSVM trains a one-vs-rest linear SVM on ds.
func NewLinearSVM(ds *forest.Dataset, cfg SVMConfig) *LinearSVM {
	samples := ds.Samples()
	classes := ds.Classes()
	index := make(map[string]int, len(classes))
	for i, c := range classes {
		index[c] = i
	}
	dims := len(samples[0].Features)

	svm := &LinearSVM{classes: classes}
	svm.mean, svm.std = standardize(samples, dims)
	svm.w = make([][]float64, len(classes))
	for c := range svm.w {
		svm.w[c] = make([]float64, dims)
	}
	svm.b = make([]float64, len(classes))

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(samples))
	t := 1.0
	for epoch := 0; epoch < svmEpochs; epoch++ {
		for _, i := range order {
			s := samples[i]
			x := svm.normalize(s.Features)
			target := index[s.Label]
			eta := 1 / (svmLambda * t)
			t++
			for c := range classes {
				y := -1.0
				if c == target {
					y = 1.0
				}
				score := svm.b[c]
				for d, w := range svm.w[c] {
					score += w * x[d]
				}
				// Pegasos update: shrink, then step on margin
				// violations.
				for d := range svm.w[c] {
					svm.w[c][d] *= 1 - eta*svmLambda
				}
				if y*score < 1 {
					for d := range svm.w[c] {
						svm.w[c][d] += eta * y * x[d] / float64(len(classes))
					}
					svm.b[c] += eta * y / float64(len(classes))
				}
			}
		}
	}
	return svm
}

func (s *LinearSVM) normalize(x []float64) []float64 {
	out := make([]float64, len(x))
	for d := range x {
		out[d] = (x[d] - s.mean[d]) / s.std[d]
	}
	return out
}

// Name implements Classifier.
func (*LinearSVM) Name() string { return "LinearSVM" }

// Classify implements Classifier: highest one-vs-rest margin wins.
func (s *LinearSVM) Classify(features []float64) (string, float64) {
	x := s.normalize(features)
	best, bestScore := 0, math.Inf(-1)
	var sumExp float64
	scores := make([]float64, len(s.classes))
	for c := range s.classes {
		score := s.b[c]
		for d, w := range s.w[c] {
			score += w * x[d]
		}
		scores[c] = score
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	for _, sc := range scores {
		sumExp += math.Exp(sc - bestScore)
	}
	return s.classes[best], 1 / sumExp
}
