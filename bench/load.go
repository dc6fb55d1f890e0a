package main

import (
	"sync"
	"time"
)

// Operation kinds a client loop can log.
const (
	opFirst  = 0
	opSecond = 1
)

// window is one measured interval. Client loops start warm before start
// and log only operations that end inside [start, end).
type window struct {
	start, end time.Time
}

func (w *window) done() bool { return !time.Now().Before(w.end) }

// clientLog is one client goroutine's record of a window. Each goroutine
// owns its log, so logging takes no lock; the logs are merged afterwards.
type clientLog struct {
	samples   [2][]sample
	attempted [2]int
	failed    [2]int
}

// observe logs one operation that finished at end, took lat and completed
// units of work. Warm-up operations (ending before the window opens) are
// dropped; a failed one counts but has no latency.
func (l *clientLog) observe(kind int, w *window, end time.Time, lat time.Duration, ok bool, units int) {
	if end.Before(w.start) {
		return
	}
	l.attempted[kind]++
	if !ok {
		l.failed[kind]++
		return
	}
	l.samples[kind] = append(l.samples[kind], sample{end: end.Sub(w.start), lat: lat, units: units})
}

// windowLog is what every client of one measured window recorded, and the
// stretch of wall clock the window was.
type windowLog struct {
	clientLog
	iv interval
}

// stats summarises one operation kind, given what the probe saw while the
// window was open.
func (l *windowLog) stats(kind int, p *probe) phaseStats {
	st := summarise(l.samples[kind], p.over(l.iv))
	st.attempted, st.failed = l.attempted[kind], l.failed[kind]
	return st
}

// runWindow starts n closed-loop clients, lets them warm up, calls
// atStart when the measured window opens and atEnd when it closes (both
// on the coordinating goroutine, for counter snapshots), waits for every
// client to return, and merges their logs.
func runWindow(n int, warm, length time.Duration, loop func(c int, log *clientLog, w *window), atStart, atEnd func()) windowLog {
	now := time.Now()
	w := &window{start: now.Add(warm), end: now.Add(warm + length)}
	logs := make([]clientLog, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loop(c, &logs[c], w)
		}(c)
	}
	time.Sleep(time.Until(w.start))
	atStart()
	time.Sleep(time.Until(w.end))
	atEnd()
	wg.Wait()

	out := windowLog{iv: interval{w.start, w.end}}
	for c := range logs {
		for kind := range out.samples {
			out.samples[kind] = append(out.samples[kind], logs[c].samples[kind]...)
			out.attempted[kind] += logs[c].attempted[kind]
			out.failed[kind] += logs[c].failed[kind]
		}
	}
	return out
}
