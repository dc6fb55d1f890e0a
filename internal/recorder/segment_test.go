package recorder

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepod/internal/infer"
	"deepod/internal/obs"
)

// TestSegmentRoundTrip: events captured with a directory configured come
// back from disk byte-identical (same JSON shape), with the header naming
// the serving context.
func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := newTest(t, Config{
		SampleRate: 1,
		Dir:        dir,
		Meta:       map[string]string{"city": "chengdu-s", "model": "m1"},
	})
	const n = 25
	for i := 0; i < n; i++ {
		r.ObserveServe(context.Background(), servedEvent(float64(i)))
	}
	r.ObserveServe(context.Background(), errEvent(infer.ErrOverloaded))
	r.Close()

	headers, events, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 1 || headers[0].Format != segmentFormat || headers[0].Meta["city"] != "chengdu-s" {
		t.Fatalf("headers = %+v", headers)
	}
	if len(events) != n+1 {
		t.Fatalf("read %d events, want %d", len(events), n+1)
	}
	for i, e := range events[:n] {
		if e.Seq != uint64(i+1) || e.EstimateSec != float64(i) || e.Snapshot != "m1" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	last := events[n]
	if last.Err != "overloaded" || !last.Shed {
		t.Fatalf("error event = %+v", last)
	}
}

// TestSegmentRotationAndRetention: the writer rotates after SegmentEvents
// events and deletes the oldest file once MaxSegments is reached — the same
// bounded-retention contract as the profiler's capture ring, but for files
// of events.
func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	r := newTest(t, Config{
		SampleRate:    1,
		Dir:           dir,
		SegmentEvents: 10,
		MaxSegments:   3,
	})
	// 60 events = 6 segments opened; only the newest 3 may survive.
	for i := 0; i < 60; i++ {
		r.ObserveServe(context.Background(), servedEvent(float64(i)))
	}
	r.Close()

	segs := listSegments(dir)
	if len(segs) != 3 {
		names := make([]string, len(segs))
		for i, s := range segs {
			names[i] = s.Name
		}
		t.Fatalf("retention kept %d segments %v, want 3", len(segs), names)
	}
	if segs[0].Name != "seg-000003.jsonl" || segs[2].Name != "seg-000005.jsonl" {
		t.Fatalf("surviving segments = %v, want 000003..000005", segs)
	}
	_, events, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 30 {
		t.Fatalf("surviving events = %d, want the newest 30", len(events))
	}
	if events[0].Seq != 31 || events[29].Seq != 60 {
		t.Fatalf("surviving seq range = %d..%d, want 31..60", events[0].Seq, events[29].Seq)
	}
}

// TestSegmentNumberingSurvivesRestart: a new recorder over a directory with
// leftover segments continues numbering instead of overwriting them.
func TestSegmentNumberingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r1 := newTest(t, Config{SampleRate: 1, Dir: dir})
	r1.ObserveServe(context.Background(), servedEvent(1))
	r1.Close()

	r2 := newTest(t, Config{SampleRate: 1, Dir: dir})
	r2.ObserveServe(context.Background(), servedEvent(2))
	r2.Close()

	segs := listSegments(dir)
	if len(segs) != 2 || segs[0].Name != "seg-000000.jsonl" || segs[1].Name != "seg-000001.jsonl" {
		t.Fatalf("segments after restart = %+v", segs)
	}
	_, events, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events after restart = %d, want both sessions'", len(events))
	}
}

// TestSegmentTornTailTolerated: a half-written final line (crashed writer)
// loses that event only; the rest of the segment still loads.
func TestSegmentTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	r := newTest(t, Config{SampleRate: 1, Dir: dir})
	r.ObserveServe(context.Background(), servedEvent(1))
	r.ObserveServe(context.Background(), servedEvent(2))
	r.Close()

	path := filepath.Join(dir, "seg-000000.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, events, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("torn segment yielded %d events, want the 2 intact ones", len(events))
	}
}

// TestSegmentBadLineRefused: a bad line with events after it is not a
// torn tail but a corrupt segment; reading it must fail, naming the file
// and the line, rather than return the events before it as the whole
// recording (which would let a replay gate pass on a truncated session).
func TestSegmentBadLineRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-000000.jsonl")
	body := `{"format":"` + segmentFormat + `"}` + "\n" +
		`{"seq":1}` + "\n" + `{garbage` + "\n" + `{"seq":2}` + "\n" + `{"seq":3}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, events, err := ReadSegment(path)
	if err == nil {
		t.Fatalf("corrupt segment read as %d events and no error", len(events))
	}
	if msg := err.Error(); !strings.Contains(msg, "seg-000000.jsonl") || !strings.Contains(msg, "line 3") {
		t.Fatalf("error %q does not name the file and line 3", msg)
	}
}

// FuzzReadSegment feeds ReadSegment's parser arbitrary files, seeded from real
// writer output with and without a torn tail. It must never panic, and a
// nil error must mean every event line before the last one parsed: only
// the final non-blank line may be dropped.
func FuzzReadSegment(f *testing.F) {
	dir := f.TempDir()
	r, err := New(Config{SampleRate: 1, Dir: dir, Meta: map[string]string{"city": "c"}, Registry: obs.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.ObserveServe(context.Background(), servedEvent(float64(i)))
	}
	r.ObserveServe(context.Background(), errEvent(infer.ErrOverloaded))
	r.Close()
	real, err := os.ReadFile(filepath.Join(dir, "seg-000000.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(append(append([]byte(nil), real...), `{"seq":5,"trunc`...))
	f.Add(append(append([]byte(nil), real...), "\n\n{\"seq\":5}\r\n"...))
	f.Add([]byte(`{"format":"` + segmentFormat + `"}` + "\n{\"seq\":1}\n{garbage\n{\"seq\":2}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, events, err := readSegment("fuzz.jsonl", bytes.NewReader(data))
		if err != nil {
			return
		}
		// The event lines as bufio.ScanLines cuts them, blanks skipped.
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:]
		var nonBlank [][]byte
		for _, l := range lines {
			if l = bytes.TrimSuffix(l, []byte("\r")); len(l) > 0 {
				nonBlank = append(nonBlank, l)
			}
		}
		for i, l := range nonBlank {
			var e Event
			if err := json.Unmarshal(l, &e); err != nil {
				if i != len(nonBlank)-1 {
					t.Fatalf("nil error, but event line %d of %d does not parse: %q", i+1, len(nonBlank), l)
				}
				nonBlank = nonBlank[:i]
			}
		}
		if len(events) != len(nonBlank) {
			t.Fatalf("nil error with %d events for %d parseable lines", len(events), len(nonBlank))
		}
	})
}

// TestSegmentUnknownFormatRefused: a reader must refuse a future format
// version rather than misparse it.
func TestSegmentUnknownFormatRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000000.jsonl")
	if err := os.WriteFile(path, []byte(`{"format":"tte-flight/99"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSegment(path); err == nil {
		t.Fatal("unknown segment format accepted")
	}
}

// TestSegmentDirCreateFails: a hostile directory path fails at New, not at
// first capture.
func TestSegmentDirCreateFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Dir: filepath.Join(file, "sub"), Registry: obs.NewRegistry()})
	if err == nil {
		t.Fatal("New accepted an uncreatable segment directory")
	}
}
