// Package nn is a minimal reverse-mode automatic-differentiation engine and
// neural-network toolkit built on internal/tensor. It provides exactly the
// building blocks the DeepOD model (SIGMOD 2020) is assembled from:
// linear layers and two-layer MLPs, an LSTM, 2-D convolutions with
// batch-normalization, embedding matrices with sparse gradients, and the
// Adam optimizer with the paper's step-decay learning-rate schedule.
//
// Computation is recorded on a Tape: every operation appends a Node holding
// its output value and a backward closure. Calling Tape.Backward on a scalar
// node propagates gradients in reverse recording order. Activations are
// batches [B, …] with one sample a row — a single sample is B = 1 — so one
// tape carries a whole mini-batch shard: an affine layer is one matrix
// product per batch (tensor.AffineBatchInto forward, dW += dYᵀ·X and
// dX += dY·W backward), an embedding lookup one row gather, a convolution
// one pass over [N, C, H, W], and the LSTM runs length-packed, one
// [B_t, in+hidden] product over the stacked gates per time step
// (LSTM.ForwardPacked). Model parameters are Param values whose gradient
// tensors are shared with their leaf nodes, so gradients accumulate until an
// optimizer step consumes and clears them. When a Tape's Grads buffer is
// set, leaf gradients are routed into that private GradBuffer instead — the
// data-parallel training mode, where each worker accumulates its shard
// locally and the buffers are reduced in fixed order afterwards.
//
// Node structs, interior values and gradients are carved out of per-tape
// arenas; Reset reclaims everything at once, so a reused tape performs
// O(nodes) small closure allocations per pass instead of O(elements) tensor
// allocations.
package nn

import (
	"fmt"

	"deepod/internal/tensor"
)

// Node is one vertex of the recorded computation graph.
type Node struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	requiresGrad bool
	back         func(n *Node)
}

// nodeChunk is the number of Node structs per arena chunk. Chunks are
// never resized, so *Node pointers stay valid as the tape grows.
const nodeChunk = 256

// Tape records operations for reverse-mode differentiation.
//
// A Tape lives for one forward/backward pass over one batch (a training
// worker's shard of a mini-batch, or one record as a batch of one); allocate with
// NewTape, run the model, call Backward, then Reset to reuse the backing
// arenas for the next batch (or discard the tape). Values and gradients
// handed out by a tape are invalidated by Reset.
type Tape struct {
	nodes []*Node
	// Eval disables gradient recording: ops still compute values but
	// backward closures are dropped. Used for inference and validation.
	Eval bool
	// Grads, when non-nil, routes parameter-leaf gradients into a private
	// buffer instead of the shared Param.Grad accumulators. Data-parallel
	// training workers each set their own buffer.
	Grads *GradBuffer

	arena     tensor.Arena
	chunks    [][]Node
	chunkIdx  int
	chunkOff  int
	liveNodes int
}

// NewTape returns an empty tape in training mode.
func NewTape() *Tape { return &Tape{} }

// NewEvalTape returns a tape that records no gradients.
func NewEvalTape() *Tape { return &Tape{Eval: true} }

// Reset clears the tape for reuse, reclaiming every node, value and
// gradient carved from its arenas since the previous Reset.
func (tp *Tape) Reset() {
	tp.nodes = tp.nodes[:0]
	tp.chunkIdx, tp.chunkOff = 0, 0
	tp.liveNodes = 0
	tp.arena.Reset()
}

// Len returns the number of recorded nodes (0 in eval mode).
func (tp *Tape) Len() int { return len(tp.nodes) }

// Alloc carves a zeroed tensor out of the tape's arena. The tensor is
// valid until the next Reset; use it for batch inputs (one-hot rows,
// normalized grids, scalar features) that would otherwise heap-allocate.
func (tp *Tape) Alloc(shape ...int) *tensor.Tensor { return tp.arena.New(shape...) }

// newNode hands out a Node from the chunked arena with all fields set.
func (tp *Tape) newNode(val, grad *tensor.Tensor, requiresGrad bool, back func(*Node)) *Node {
	for {
		if tp.chunkIdx < len(tp.chunks) {
			chunk := tp.chunks[tp.chunkIdx]
			if tp.chunkOff < len(chunk) {
				n := &chunk[tp.chunkOff]
				tp.chunkOff++
				tp.liveNodes++
				n.Value, n.Grad, n.requiresGrad, n.back = val, grad, requiresGrad, back
				return n
			}
			tp.chunkIdx++
			tp.chunkOff = 0
			continue
		}
		tp.chunks = append(tp.chunks, make([]Node, nodeChunk))
	}
}

// Const wraps a tensor as a leaf with no gradient.
func (tp *Tape) Const(t *tensor.Tensor) *Node {
	return tp.newNode(t, nil, false, nil)
}

// Leaf wraps a parameter's value as a differentiable leaf whose gradient
// tensor is the parameter's accumulator (or the tape's GradBuffer slot
// when Grads is set), so backward passes add into it.
func (tp *Tape) Leaf(p *Param) *Node {
	if tp.Eval {
		return tp.newNode(p.Value, nil, false, nil)
	}
	g := p.Grad
	if tp.Grads != nil {
		g = tp.Grads.Grad(p)
	}
	return tp.newNode(p.Value, g, true, nil)
}

// node constructs an interior node. deps that require grad make the result
// require grad; the backward closure is recorded only in training mode.
func (tp *Tape) node(val *tensor.Tensor, back func(n *Node), deps ...*Node) *Node {
	if tp.Eval {
		return tp.newNode(val, nil, false, nil)
	}
	req := false
	for _, d := range deps {
		if d.requiresGrad {
			req = true
			break
		}
	}
	if !req {
		return tp.newNode(val, nil, false, nil)
	}
	n := tp.newNode(val, tp.arena.New(val.Shape...), true, back)
	tp.nodes = append(tp.nodes, n)
	return n
}

// accumulate adds g into dep's gradient if dep participates in backprop.
func accumulate(dep *Node, g *tensor.Tensor) {
	if dep == nil || !dep.requiresGrad || dep.Grad == nil {
		return
	}
	dep.Grad.AddInPlace(g)
}

// accumulateScaled adds s·g into dep's gradient without a temporary.
func accumulateScaled(dep *Node, g *tensor.Tensor, s float64) {
	if dep == nil || !dep.requiresGrad || dep.Grad == nil {
		return
	}
	dep.Grad.AddScaledInPlace(g, s)
}

// Backward seeds the gradient of root (which must be a scalar node) with 1
// and propagates gradients through the tape in reverse order.
func (tp *Tape) Backward(root *Node) {
	if tp.Eval {
		panic("nn: Backward called on an eval tape")
	}
	if root.Value.Size() != 1 {
		panic(fmt.Sprintf("nn: Backward root must be scalar, got shape %v", root.Value.Shape))
	}
	if !root.requiresGrad {
		return // loss does not depend on any parameter
	}
	root.Grad.Data[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		n := tp.nodes[i]
		if n.back != nil {
			n.back(n)
		}
	}
}
