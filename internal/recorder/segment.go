package recorder

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepod/internal/obs"
)

// segmentFormat versions the on-disk shape; a reader refuses segments it
// does not understand instead of silently misparsing them.
const segmentFormat = "tte-flight/1"

// Header is the first line of every segment file: the format version, when
// the segment opened, and the serving context it was recorded under.
type Header struct {
	Format    string            `json:"format"`
	StartedNs int64             `json:"started_unix_ns"`
	Meta      map[string]string `json:"meta,omitempty"`
}

// SegmentInfo describes one on-disk segment file.
type SegmentInfo struct {
	Name      string `json:"name"`
	Bytes     int64  `json:"bytes"`
	ModUnixNs int64  `json:"mod_unix_ns"`
}

// segmentWriter appends captured events to JSONL segment files off the
// serve path: ObserveServe hands events to a bounded channel and a single
// writer goroutine does the file I/O, rotating after perSegment events and
// deleting the oldest files beyond maxSegments. A full channel sheds the
// event (counted) rather than ever blocking a request.
type segmentWriter struct {
	dir         string
	perSegment  int
	maxSegments int
	meta        map[string]string
	now         func() time.Time

	ch       chan Event
	accepted atomic.Uint64
	done     chan struct{}
	finished chan struct{}
	once     sync.Once

	// mu guards the open file against concurrent sync()/close flushes;
	// only the writer goroutine rotates.
	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	inSeg   int
	nextIdx int

	written *obs.Counter
	dropped *obs.Counter
	rotated *obs.Counter
}

func newSegmentWriter(dir string, perSegment, maxSegments int, meta map[string]string, reg *obs.Registry, now func() time.Time) (*segmentWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recorder: segment dir: %w", err)
	}
	reg.Help("tte_recorder_disk_written_total", "Wide events appended to segment files.")
	reg.Help("tte_recorder_disk_dropped_total", "Captured events shed because the segment writer's queue was full or a write failed.")
	reg.Help("tte_recorder_segments_total", "Segment files opened since start.")
	w := &segmentWriter{
		dir:         dir,
		perSegment:  perSegment,
		maxSegments: maxSegments,
		meta:        meta,
		now:         now,
		ch:          make(chan Event, 1024),
		done:        make(chan struct{}),
		finished:    make(chan struct{}),
		written:     reg.Counter("tte_recorder_disk_written_total"),
		dropped:     reg.Counter("tte_recorder_disk_dropped_total"),
		rotated:     reg.Counter("tte_recorder_segments_total"),
	}
	// Continue numbering after whatever a previous process left behind, so
	// a restart never overwrites surviving segments.
	for _, si := range w.list() {
		var idx int
		if _, err := fmt.Sscanf(si.Name, "seg-%06d.jsonl", &idx); err == nil && idx >= w.nextIdx {
			w.nextIdx = idx + 1
		}
	}
	go w.run()
	return w, nil
}

// offer hands an event to the writer goroutine without ever blocking the
// serve path: a full queue sheds the event and counts the loss.
func (w *segmentWriter) offer(e Event) {
	select {
	case w.ch <- e:
		w.accepted.Add(1)
	default:
		w.dropped.Inc()
	}
}

func (w *segmentWriter) run() {
	for {
		select {
		case e := <-w.ch:
			w.write(e)
			if len(w.ch) == 0 {
				// Queue drained: flush so tailing readers see the events
				// without waiting for rotation.
				w.flush()
			}
		case <-w.done:
			for {
				select {
				case e := <-w.ch:
					w.write(e)
				default:
					w.mu.Lock()
					if w.bw != nil {
						_ = w.bw.Flush()
						_ = w.f.Close()
						w.bw, w.f = nil, nil
					}
					w.mu.Unlock()
					close(w.finished)
					return
				}
			}
		}
	}
}

func (w *segmentWriter) write(e Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil || w.inSeg >= w.perSegment {
		if err := w.rotateLocked(); err != nil {
			w.dropped.Inc()
			return
		}
	}
	b, err := json.Marshal(e)
	if err != nil {
		w.dropped.Inc()
		return
	}
	b = append(b, '\n')
	if _, err := w.bw.Write(b); err != nil {
		w.dropped.Inc()
		return
	}
	w.inSeg++
	w.written.Inc()
}

// rotateLocked closes the live segment, enforces retention, and opens the
// next one with its header line.
func (w *segmentWriter) rotateLocked() error {
	if w.bw != nil {
		_ = w.bw.Flush()
		_ = w.f.Close()
		w.bw, w.f = nil, nil
	}
	// Retention: the new segment must fit inside the budget, so delete
	// oldest files until maxSegments-1 remain.
	segs := w.list()
	for len(segs) >= w.maxSegments && len(segs) > 0 {
		_ = os.Remove(filepath.Join(w.dir, segs[0].Name))
		segs = segs[1:]
	}
	name := fmt.Sprintf("seg-%06d.jsonl", w.nextIdx)
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.nextIdx++
	w.f = f
	w.bw = bufio.NewWriter(f)
	hdr, err := json.Marshal(Header{
		Format:    segmentFormat,
		StartedNs: w.now().UnixNano(),
		Meta:      w.meta,
	})
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(append(hdr, '\n')); err != nil {
		return err
	}
	w.inSeg = 0
	w.rotated.Inc()
	return nil
}

func (w *segmentWriter) flush() {
	w.mu.Lock()
	if w.bw != nil {
		_ = w.bw.Flush()
	}
	w.mu.Unlock()
}

// sync waits (bounded) for every accepted event to be written, then
// flushes, so a reader opening the files sees all captures offered before
// the call.
func (w *segmentWriter) sync() {
	deadline := time.Now().Add(2 * time.Second)
	for w.written.Value()+w.dropped.Value() < w.accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.flush()
}

func (w *segmentWriter) close() {
	w.once.Do(func() { close(w.done) })
	<-w.finished
}

// list returns the directory's segment files sorted by name (oldest
// first — names are zero-padded indices, so lexical order is creation
// order).
func (w *segmentWriter) list() []SegmentInfo {
	return listSegments(w.dir)
}

func listSegments(dir string) []SegmentInfo {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []SegmentInfo
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, SegmentInfo{Name: name, Bytes: info.Size(), ModUnixNs: info.ModTime().UnixNano()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReadSegment parses one segment file: the header line, then one event
// per line. Blank lines are skipped. An unknown format is an error, and so
// is a bad event line anywhere but last: only a crashed writer's torn final
// line is tolerated, and dropped.
func ReadSegment(path string) (Header, []Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return readSegment(filepath.Base(path), f)
}

// readSegment is ReadSegment on an open file; name labels its errors.
func readSegment(name string, f io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		return Header{}, nil, fmt.Errorf("recorder: %s: empty segment", name)
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return Header{}, nil, fmt.Errorf("recorder: %s: header: %w", name, err)
	}
	if hdr.Format != segmentFormat {
		return Header{}, nil, fmt.Errorf("recorder: %s: format %q, want %q", name, hdr.Format, segmentFormat)
	}
	var events []Event
	var torn error // the last bad line, fatal once another line follows it
	for n := 2; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if torn != nil {
			return Header{}, nil, torn
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			torn = fmt.Errorf("recorder: %s: line %d: %w", name, n, err)
			continue
		}
		events = append(events, e)
	}
	return hdr, events, sc.Err()
}

// ReadDir loads every segment in a directory oldest-first and concatenates
// their events in capture order.
func ReadDir(dir string) ([]Header, []Event, error) {
	segs := listSegments(dir)
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("recorder: no segments in %s", dir)
	}
	var headers []Header
	var events []Event
	for _, si := range segs {
		hdr, evs, err := ReadSegment(filepath.Join(dir, si.Name))
		if err != nil {
			return nil, nil, err
		}
		headers = append(headers, hdr)
		events = append(events, evs...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	return headers, events, nil
}
