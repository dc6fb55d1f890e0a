package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The sandbox this benchmark is judged on is a small virtual machine on a
// shared host. The hypervisor takes its core away for milliseconds at a
// time, and whoever runs on the sibling hardware thread slows every
// instruction that shares a pipeline or a cache with it: for spells of
// seconds to minutes the same request takes 1.3 to 4 times as long, and no
// steal is reported. Whatever the wall clock times therefore measures the
// neighbours first and the program second; over ten minutes the median
// latency of one and the same request, taken over 15 s at a time, moved
// 31 % between its quartiles.
//
// The probe measures what the neighbours did. While a run measures, one
// goroutine wakes every probeEvery and runs a burst of units of fixed work,
// timing each. There are two kinds of unit, because the neighbours slow two
// kinds of code differently:
//
//   - refCPU: parse the numbers out of a request body and render them again
//     with strconv, hash the result and sort 64 values drawn from the hash
//     (branchy library code, like the JSON layer and the matcher), then sum
//     256 KiB of float64s (arithmetic streaming through the second-level
//     cache, like the model).
//   - refNet: two round trips of 160 bytes over a loopback TCP connection
//     whose both ends the probe holds, eight system calls through the
//     kernel's socket and TCP layers, like the transport of a request.
//
// Interleaved for 25 minutes with the program's own operations, 20 s
// readings of an HTTP request's median latency ranged over 50-70 % of their
// median; divided by the refNet unit's they ranged over 6-12 %, by the
// refCPU unit's over 23-39 % (it tracks them with a slope of 1.6-1.8, the
// loopback unit with 1.0-1.2). Engine.Do, Model.Estimate and MatchOD ranged
// over 26-32 %; divided by the refCPU unit over 6-8 %, by the refNet unit
// over 16-20 %. Register arithmetic alone tracks neither. Neither unit
// allocates or stores a pointer, so the program's garbage collector never
// makes one wait or work.
//
// A unit takes refUnit[kind] on the undisturbed sandbox, so over any
// interval units timed × refUnit / wall time they took is the share of an
// undisturbed core that kind of code was really given, and
//
//	share = the geometric mean of the two kinds' shares
//
// is the one yardstick everything is held against: over twelve runs per
// workload on a host that moved the wall-clock rates 10-45 %
// between their quartiles, rates over it moved 2-6 % (each kind alone is
// better on some operations and worse on others, by up to a factor of
// three). The run executes on one P (GOMAXPROCS 1, see run), so while a
// burst runs nothing of the program does, and the program's own time over
// the interval is
//
//	(wall − bursts' wall) × share
//
// which is what every rate, every latency and every set-up time is taken
// over. The bursts sample about a fifteenth of the run, evenly, and the host
// does not know which.
//
// Everything held against the yardstick is a mean: all operations of a
// window over its own time. A neighbour that is busy a share x of the time
// slows a mean by 1 + x(k − 1), the program's and the unit's alike. A median
// steps from undisturbed to disturbed as x passes one half, the program's
// and the unit's at different moments: the same runs' median latencies,
// scaled by the median unit of either kind, still moved 15-18 % between
// their quartiles on the cache-miss workloads.
//
// The numbers that come out are those of an undisturbed core of the
// sandbox's speed. They compare two versions of the program, which is what
// the bounds are for; they are not what a caller on a busy host observes
// (the log gives the wall-clock figures next to them).
const (
	refCPU = iota
	refNet
	numRefs
)

const (
	// A burst is probeWarm refCPU units that only refill the caches the
	// program emptied, then probeUnits timed units of each kind.
	probeWarm  = 2
	probeUnits = 20
	probeEvery = 10 * time.Millisecond
	// A burst that comes late (a goroutine that never blocks keeps the P for
	// its whole 10 ms slice, and two of them take turns) is made as many
	// times longer, up to probeStretch times, so that the bursts keep
	// sampling the same share of the run.
	probeStretch = 4
	// probeStream is how many float64s a refCPU unit sums: 256 KiB.
	probeStream = 32 << 10
	// probeCodecs is how many times it parses, renders, hashes and sorts.
	probeCodecs = 6
	// probeTrips is how many round trips a refNet unit makes, probeMessage
	// how many bytes travel each way.
	probeTrips   = 2
	probeMessage = 160
)

// refUnit is what one unit of each kind takes on the sandbox the benchmark
// was written on when nothing disturbs it. It only fixes the scale of the
// reported numbers.
var refUnit = [numRefs]time.Duration{refCPU: 19 * time.Microsecond, refNet: 11500 * time.Nanosecond}

// probeBody is the request body a refCPU unit works on.
var probeBody = []byte(`{"origin":{"X":1834.5678,"Y":2245.6789},"dest":{"X":3456.789,"Y":456.7891},"depart_sec":1.234567891e+06}`)

// burst is one wake-up of the probe.
type burst struct {
	start time.Time
	// wall is how long the whole burst took.
	wall time.Duration
	// units is how many units of each kind were timed, timed how long they
	// took together, per kind.
	units int
	timed [numRefs]time.Duration
}

// probe is the running probe.
type probe struct {
	stop chan struct{}
	done chan struct{}
	// Scratch of a refCPU unit: the streamed values, the parsed numbers,
	// the rendered bytes and the values sorted.
	vals   []float64
	nums   []float64
	out    []byte
	sorted [64]float64
	// The two ends of the loopback connection and the message.
	near, far net.Conn
	msg       []byte

	sink float64

	mu     sync.Mutex
	bursts []burst
	err    error // what broke the loopback connection, if anything did
}

// isNumberByte reports whether c can continue a JSON number.
func isNumberByte(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == '+' || c == '-'
}

// cpuUnit is the fixed piece of in-process work.
func (p *probe) cpuUnit() {
	var acc float64
	for k := 0; k < probeCodecs; k++ {
		p.nums, p.out = p.nums[:0], p.out[:0]
		for i := 0; i < len(probeBody); i++ {
			if c := probeBody[i]; c != '-' && (c < '0' || c > '9') {
				continue
			}
			j := i + 1
			for j < len(probeBody) && isNumberByte(probeBody[j]) {
				j++
			}
			f, err := strconv.ParseFloat(string(probeBody[i:j]), 64)
			if err != nil {
				panic(err)
			}
			p.nums = append(p.nums, f)
			i = j
		}
		for _, f := range p.nums {
			p.out = strconv.AppendFloat(append(p.out, ','), f*(1+float64(k)*1e-7), 'g', -1, 64)
		}
		h := uint64(14695981039346656037) // FNV-1a over what was rendered
		for _, c := range p.out {
			h = (h ^ uint64(c)) * 1099511628211
		}
		for i := range p.sorted {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			p.sorted[i] = float64(h >> 11)
		}
		sort.Float64s(p.sorted[:])
		acc += p.sorted[0]
	}
	var s0, s1, s2, s3 float64
	for i, v := 0, p.vals; i+3 < len(v); i += 4 {
		s0 += v[i]
		s1 += v[i+1]
		s2 += v[i+2]
		s3 += v[i+3]
	}
	p.sink += acc + s0 + s1 + s2 + s3
}

// netUnit is the fixed piece of work through the kernel's network stack.
// Loopback delivers inside the sender's system call, so the reads find
// their bytes waiting and the goroutine does not park.
func (p *probe) netUnit() error {
	for k := 0; k < probeTrips; k++ {
		if _, err := p.near.Write(p.msg); err != nil {
			return err
		}
		if _, err := io.ReadFull(p.far, p.msg); err != nil {
			return err
		}
		if _, err := p.far.Write(p.msg); err != nil {
			return err
		}
		if _, err := io.ReadFull(p.near, p.msg); err != nil {
			return err
		}
	}
	return nil
}

// timeUnits runs n units and returns how long they took together.
func timeUnits(n int, unit func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		unit()
	}
	return time.Since(start)
}

func startProbe() (*probe, error) {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{}),
		vals: make([]float64, probeStream), nums: make([]float64, 0, 8), out: make([]byte, 0, 256),
		msg: make([]byte, probeMessage)}
	for i := range p.vals {
		p.vals[i] = float64(i & 15)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	if p.near, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, err
	}
	if p.far, err = ln.Accept(); err != nil {
		p.near.Close()
		return nil, err
	}
	go func() {
		defer close(p.done)
		t := time.NewTimer(probeEvery)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			// A goroutine the timer readies runs in the time slice of the one
			// that was running, and is preempted when that slice ends, in the
			// middle of a burst. Yielding once queues it for a slice of its own.
			runtime.Gosched()
			b := burst{start: time.Now()}
			b.units = probeUnits * int(b.start.Sub(last)) / int(probeEvery)
			b.units = min(max(b.units, probeUnits), probeUnits*probeStretch)
			last = b.start
			for i := 0; i < probeWarm; i++ {
				p.cpuUnit()
			}
			b.timed[refCPU] = timeUnits(b.units, p.cpuUnit)
			var netErr error
			b.timed[refNet] = timeUnits(b.units, func() {
				if err := p.netUnit(); err != nil {
					netErr = err
				}
			})
			b.wall = time.Since(b.start)
			p.mu.Lock()
			if p.err = netErr; netErr == nil {
				p.bursts = append(p.bursts, b)
			}
			p.mu.Unlock()
			if netErr != nil {
				return
			}
			// The next burst is due probeEvery after this one began, so the
			// bursts take a fixed share of the run however long each lasted.
			t.Reset(probeEvery - b.wall)
		}
	}()
	return p, nil
}

// finish stops the probe and reports what stopped it early, if anything
// did: a run whose probe died measured part of itself by the wall clock. A
// nil probe (a traced run has none) has nothing to stop.
func (p *probe) finish() error {
	if p == nil {
		return nil
	}
	close(p.stop)
	<-p.done
	p.near.Close()
	p.far.Close()
	if p.err != nil {
		return fmt.Errorf("probe: loopback connection: %w", p.err)
	}
	return nil
}

// interval is a stretch of wall clock.
type interval struct{ from, to time.Time }

func (iv interval) length() time.Duration { return iv.to.Sub(iv.from) }

// avail is what the probe saw over some intervals.
type avail struct {
	// wall is the length of the intervals, probeWall the part of it the
	// probe's bursts took.
	wall, probeWall time.Duration
	bursts          int
	// kinds are the shares of an undisturbed core the two kinds of unit were
	// given, share their geometric mean.
	kinds [numRefs]float64
	share float64
}

// own is the program's own time over the intervals: the wall clock less the
// probe's bursts, at the share of an undisturbed core they were given.
func (a avail) own() time.Duration {
	return time.Duration(float64(a.wall-a.probeWall) * a.share)
}

// undisturbed is what the probe reports when it saw nothing: the wall clock
// stands.
func undisturbed(wall time.Duration) avail {
	return avail{wall: wall, kinds: [numRefs]float64{1, 1}, share: 1}
}

// over sums the bursts that began inside any of the intervals. With no
// probe, or no burst (an interval shorter than probeEvery), the wall clock
// stands uncorrected.
func (p *probe) over(ivs ...interval) avail {
	var wall time.Duration
	for _, iv := range ivs {
		wall += iv.length()
	}
	a := undisturbed(wall)
	if p == nil {
		return a
	}
	var timed [numRefs]time.Duration
	var units int
	p.mu.Lock()
	for _, b := range p.bursts {
		for _, iv := range ivs {
			if !b.start.Before(iv.from) && b.start.Before(iv.to) {
				a.probeWall += b.wall
				a.bursts++
				units += b.units
				for ref := range timed {
					timed[ref] += b.timed[ref]
				}
				break
			}
		}
	}
	p.mu.Unlock()
	if a.bursts == 0 || a.probeWall >= a.wall {
		return undisturbed(wall)
	}
	a.share = 1
	for ref := range timed {
		a.kinds[ref] = float64(time.Duration(units)*refUnit[ref]) / float64(timed[ref])
		a.share *= a.kinds[ref]
	}
	a.share = math.Sqrt(a.share)
	return a
}
