package core

import (
	"sync"

	"deepod/internal/nn"
)

// trainPool is a persistent set of data-parallel training workers. Each
// worker owns a reusable tape, on which it builds one graph over its shard
// of the mini-batch, and whose leaf gradients are routed into a private
// GradBuffer; after a batch, reduce folds the buffers into the shared
// parameter gradients in fixed worker-index order. That fixed order is the
// determinism contract: a given seed + worker count always sums the shard
// gradients in the same floating-point order, and one worker is the serial
// path (its zeroed buffer, added once to the zeroed shared gradient, is
// exactly the whole batch's gradient).
type trainPool struct {
	ps    *nn.ParamSet
	n     int
	tapes []*nn.Tape
	bufs  []*nn.GradBuffer
	jobs  []chan func(w int, tp *nn.Tape)
	wg    sync.WaitGroup
}

// newTrainPool starts n persistent workers over ps (n < 1 is clamped to 1).
func newTrainPool(ps *nn.ParamSet, n int) *trainPool {
	if n < 1 {
		n = 1
	}
	p := &trainPool{ps: ps, n: n}
	for w := 0; w < n; w++ {
		tp := nn.NewTape()
		gb := ps.NewGradBuffer()
		tp.Grads = gb
		p.tapes = append(p.tapes, tp)
		p.bufs = append(p.bufs, gb)
		ch := make(chan func(w int, tp *nn.Tape))
		p.jobs = append(p.jobs, ch)
		go func(w int, tp *nn.Tape, ch chan func(int, *nn.Tape)) {
			for f := range ch {
				f(w, tp)
				p.wg.Done()
			}
		}(w, tp, ch)
	}
	return p
}

// run invokes f once on every worker concurrently and waits for all of them.
// Workers shard the batch themselves (sample i belongs to worker i mod n).
func (p *trainPool) run(f func(w int, tp *nn.Tape)) {
	p.wg.Add(p.n)
	for _, ch := range p.jobs {
		ch <- f
	}
	p.wg.Wait()
}

// reduce folds the per-worker gradient buffers into the shared parameter
// gradients in worker-index order and clears the buffers for the next batch.
func (p *trainPool) reduce() {
	for _, gb := range p.bufs {
		gb.AccumulateInto(p.ps)
		gb.Zero()
	}
}

// close shuts the workers down; the pool must not be used afterwards.
func (p *trainPool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

// shardLoop runs body(i) for every i in [0, n) sharded across workers
// goroutines (sample i on worker i mod workers), waiting for completion.
// With workers <= 1 it runs inline. Writes from body must go to
// index-disjoint locations; results are then independent of scheduling.
func shardLoop(n, workers int, body func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				body(i)
			}
		}(w)
	}
	wg.Wait()
}
