package models

import (
	"fmt"
	"math"
	"sort"
	"time"

	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// GBM is the gradient-boosted regression-tree baseline (the role XGBoost
// plays in the paper): an ensemble of shallow CART regression trees fit to
// squared-loss residuals with shrinkage, exact greedy splits, and minimum
// leaf sizes. Like the paper's baselines it works from the basic OD features
// (raw coordinates + departure-time features); its edge over LR comes from
// nonlinearity, not feature engineering.
type GBM struct {
	feat *Featurizer

	// NumTrees, MaxDepth, MinLeaf and Shrinkage are the usual boosting
	// hyper-parameters.
	NumTrees  int
	MaxDepth  int
	MinLeaf   int
	Shrinkage float64

	base      float64
	trees     []*gbmTree
	trainTime time.Duration
}

// NewGBM builds an untrained boosted-tree baseline with defaults that fit
// the synthetic datasets.
func NewGBM(g *roadnet.Graph) *GBM {
	return &GBM{
		feat:     NewFeaturizer(g),
		NumTrees: 60, MaxDepth: 4, MinLeaf: 8, Shrinkage: 0.15,
	}
}

// Name implements Estimator.
func (m *GBM) Name() string { return "GBM" }

type gbmNode struct {
	feature int
	thresh  float64
	left    int32 // child indices; -1 for leaf
	right   int32
	value   float64
}

type gbmTree struct {
	nodes []gbmNode
}

func (t *gbmTree) predict(fs []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.left < 0 {
			return n.value
		}
		if fs[n.feature] <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Train fits the ensemble to the training records.
func (m *GBM) Train(train, _ []traj.TripRecord) error {
	if len(train) < 2*m.MinLeaf {
		return fmt.Errorf("models: GBM needs at least %d records, got %d", 2*m.MinLeaf, len(train))
	}
	start := time.Now()
	n := len(train)
	feats := make([][]float64, n)
	var mean float64
	for i := range train {
		feats[i] = m.feat.BasicFeatures(&train[i].Matched)
		mean += train[i].TravelSec
	}
	m.base = mean / float64(n)

	residual := make([]float64, n)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.base
	}
	m.trees = m.trees[:0]
	idx := make([]int, n)
	for t := 0; t < m.NumTrees; t++ {
		for i := range residual {
			residual[i] = train[i].TravelSec - pred[i]
			idx[i] = i
		}
		tree := &gbmTree{}
		m.grow(tree, feats, residual, idx, 0)
		m.trees = append(m.trees, tree)
		for i := range pred {
			pred[i] += float64(m.Shrinkage * tree.predict(feats[i]))
		}
	}
	m.trainTime = time.Since(start)
	return nil
}

// grow recursively builds a tree node over samples idx; returns its index.
func (m *GBM) grow(t *gbmTree, feats [][]float64, target []float64, idx []int, depth int) int32 {
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, gbmNode{left: -1, right: -1})

	var sum float64
	for _, i := range idx {
		sum += target[i]
	}
	meanVal := sum / float64(len(idx))
	t.nodes[node].value = meanVal

	if depth >= m.MaxDepth || len(idx) < 2*m.MinLeaf {
		return node
	}
	bestGain := 0.0
	bestFeat, bestPos := -1, -1
	var order []int
	for f := 0; f < NumBasicFeatures; f++ {
		sorted := append([]int(nil), idx...)
		sort.Slice(sorted, func(a, b int) bool { return feats[sorted[a]][f] < feats[sorted[b]][f] })
		// prefix sums of targets in sorted order
		var leftSum float64
		total := sum
		nTot := float64(len(sorted))
		for pos := 0; pos < len(sorted)-1; pos++ {
			leftSum += target[sorted[pos]]
			nl := float64(pos + 1)
			if int(nl) < m.MinLeaf || len(sorted)-int(nl) < m.MinLeaf {
				continue
			}
			// skip ties: can't split between equal feature values
			if feats[sorted[pos]][f] == feats[sorted[pos+1]][f] {
				continue
			}
			rightSum := total - leftSum
			nr := nTot - nl
			gain := leftSum*leftSum/nl + rightSum*rightSum/nr - total*total/nTot
			if gain > bestGain+1e-12 {
				bestGain, bestFeat, bestPos = gain, f, pos
				order = sorted
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	thresh := (feats[order[bestPos]][bestFeat] + feats[order[bestPos+1]][bestFeat]) / 2
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if feats[i][bestFeat] <= thresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return node
	}
	t.nodes[node].feature = bestFeat
	t.nodes[node].thresh = thresh
	l := m.grow(t, feats, target, leftIdx, depth+1)
	r := m.grow(t, feats, target, rightIdx, depth+1)
	t.nodes[node].left = l
	t.nodes[node].right = r
	return node
}

// Estimate implements Estimator.
func (m *GBM) Estimate(od *traj.MatchedOD) float64 {
	if len(m.trees) == 0 {
		panic("models: GBM used before Train")
	}
	fs := m.feat.BasicFeatures(od)
	y := m.base
	for _, t := range m.trees {
		y += float64(m.Shrinkage * t.predict(fs))
	}
	return math.Max(0, y)
}

// SizeBytes implements Trainable (each node stores ~4 scalars).
func (m *GBM) SizeBytes() int {
	n := 0
	for _, t := range m.trees {
		n += len(t.nodes)
	}
	return n*4*8 + 8
}

// TrainTime implements Trainable.
func (m *GBM) TrainTime() time.Duration { return m.trainTime }
