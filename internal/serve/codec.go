package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"deepod/internal/traffic"
)

// The /estimate and /probes codecs. An estimate request is five numbers
// between fixed keys, a probe a vehicle string and three numbers, and an
// estimate answer four fields, so none of them needs encoding/json's
// reflection: the decoders recognise the one canonical rendering of a body
// and hand everything else to encoding/json, and the encoder appends the
// bytes json.Encoder would write. They are held to encoding/json byte for
// byte by FuzzDecodeEstimate, FuzzDecodeProbes and FuzzEncodeEstimate.

// codecBufs recycles the one scratch buffer a request uses, first for the
// bytes of its body and then for the bytes of its answer.
var codecBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// estimateKeys are the bytes around the five numbers of the canonical body
//
//	{"origin":{"X":n,"Y":n},"dest":{"X":n,"Y":n},"depart_sec":n}
//
// which is what json.Marshal makes of an EstimateRequest.
var estimateKeys = [5]string{`{"origin":{"X":`, `,"Y":`, `},"dest":{"X":`, `,"Y":`, `},"depart_sec":`}

// decodeEstimate decodes one /estimate body into req with the result —
// value, error text, error type — of json.NewDecoder(body).Decode(req).
// One Read into scratch usually holds the whole body; when those bytes are
// the canonical body and nothing but whitespace, the scanner's numbers are
// the answer. Anything else is encoding/json's to judge: it gets the bytes
// already read and then the rest of body, so the accepted language and every
// error stay its own. body must repeat a read error when read again, as
// http.MaxBytesReader does; the one from this Read is dropped for that.
func decodeEstimate(body io.Reader, scratch []byte, req *EstimateRequest) error {
	n, _ := body.Read(scratch[:cap(scratch)])
	read := scratch[:n]
	if scanEstimate(read, req) {
		return nil
	}
	var slow EstimateRequest // not req itself: encoding/json would move the caller's to the heap
	err := json.NewDecoder(io.MultiReader(bytes.NewReader(read), body)).Decode(&slow)
	*req = slow
	return err
}

// scanEstimate fills req from b when b is exactly the canonical body
// followed by JSON whitespace only, and reports whether it was. req is
// untouched otherwise.
func scanEstimate(b []byte, req *EstimateRequest) bool {
	var v [5]float64
	for i, key := range estimateKeys {
		if len(b) < len(key) || string(b[:len(key)]) != key {
			return false
		}
		b = b[len(key):]
		n := numberLen(b)
		if n == 0 {
			return false
		}
		// Out of range (1e999) is an error here and an UnmarshalTypeError
		// in encoding/json: leave it the message.
		f, err := strconv.ParseFloat(string(b[:n]), 64)
		if err != nil {
			return false
		}
		v[i], b = f, b[n:]
	}
	if len(b) == 0 || b[0] != '}' || len(trimSpace(b[1:])) != 0 {
		return false
	}
	req.Origin.X, req.Origin.Y, req.Dest.X, req.Dest.Y, req.DepartSec = v[0], v[1], v[2], v[3], v[4]
	return true
}

// numberLen is the length of the RFC 8259 number b starts with, 0 when it
// starts with none: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. A number
// encoding/json would refuse for what follows it ("01", "1.") fails on the
// next key instead.
func numberLen(b []byte) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(j)
		if k == j {
			return 0
		}
		i = k
	}
	return i
}

// probeScratch is what one /probes request decodes with: the body's bytes
// and its probes. probeScratches recycles them, but takes back no buffer
// grown past its bound below: one outsized body must not stay pinned.
type probeScratch struct {
	body  []byte
	batch []traffic.Probe
}

var probeScratches = sync.Pool{New: func() any {
	return &probeScratch{body: make([]byte, 0, 4<<10), batch: make([]traffic.Probe, 0, 64)}
}}

const (
	maxPooledProbeBytes = 64 << 10
	maxPooledProbes     = 1 << 10
)

// release returns ps to the pool once the batch's sink has returned.
func (ps *probeScratch) release() {
	clear(ps.batch[:cap(ps.batch)]) // the sink copied what it keeps; do not pin the vehicle strings
	if cap(ps.body) <= maxPooledProbeBytes && cap(ps.batch) <= maxPooledProbes {
		probeScratches.Put(ps)
	}
}

// probeKeys are the bytes after the vehicle of the canonical probe
//
//	{"vehicle":"<id>","x":n,"y":n,"t":n}
//
// which is what json.Marshal makes of a traffic.Probe whose vehicle is
// printable ASCII without a quote or a backslash.
var probeKeys = [3]string{`","x":`, `,"y":`, `,"t":`}

// decodeProbes appends an NDJSON /probes body to batch with the result of
// the loop `for dec.Decode(&p) == nil { batch = append(batch, p) }` over
// json.NewDecoder(body): the same probes, and its error, nil where that loop
// ends at io.EOF. The whole body is read into buf (returned, perhaps grown,
// for the caller to pool); when that ends the body and holds canonical
// probes separated by JSON whitespace, the scanner's values are the answer.
// Anything else, and a read error, is encoding/json's to judge: the loop gets
// the bytes already read and then the rest of body, so the accepted
// language, every error and the probe it stops at stay its own. body must
// repeat a read error when read again, as http.MaxBytesReader does.
func decodeProbes(body io.Reader, buf []byte, batch []traffic.Probe) ([]byte, []traffic.Probe, error) {
	buf, err := readAll(body, buf[:0])
	if err == nil {
		if out, ok := scanProbes(buf, batch); ok {
			return buf, out, nil
		}
	}
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), body))
	for {
		var p traffic.Probe
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return buf, batch, err
		}
		batch = append(batch, p)
	}
}

// readAll appends what r holds to b, as io.ReadAll does, with a nil error
// at io.EOF.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// scanProbes appends the probes of b to batch when b is canonical probes
// separated by JSON whitespace, and reports whether it was. On false the
// caller goes on with batch as it passed it.
func scanProbes(b []byte, batch []traffic.Probe) ([]traffic.Probe, bool) {
	const open = `{"vehicle":"`
	for {
		b = trimSpace(b)
		if len(b) == 0 {
			return batch, true
		}
		if len(b) < len(open) || string(b[:len(open)]) != open {
			return batch, false
		}
		b = b[len(open):]
		// A vehicle byte outside printable ASCII, or an escape, is left to
		// encoding/json; the quote that ends the vehicle opens probeKeys[0].
		n := 0
		for n < len(b) && ' ' <= b[n] && b[n] <= '~' && b[n] != '"' && b[n] != '\\' {
			n++
		}
		vehicle := b[:n]
		b = b[n:]
		var v [3]float64
		for i, key := range probeKeys {
			if len(b) < len(key) || string(b[:len(key)]) != key {
				return batch, false
			}
			b = b[len(key):]
			n := numberLen(b)
			if n == 0 {
				return batch, false
			}
			f, err := strconv.ParseFloat(string(b[:n]), 64)
			if err != nil {
				return batch, false
			}
			v[i], b = f, b[n:]
		}
		if len(b) == 0 || b[0] != '}' {
			return batch, false
		}
		b = b[1:]
		batch = append(batch, traffic.Probe{Vehicle: string(vehicle), X: v[0], Y: v[1], T: v[2]})
	}
}

// trimSpace drops the JSON whitespace b starts with.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	return b
}

// writeEstimate answers 200 with resp, through scratch when the answer can
// be appended and through writeJSON when it cannot.
func writeEstimate(w http.ResponseWriter, scratch *[]byte, resp *EstimateResponse) {
	b, ok := appendEstimateResponse((*scratch)[:0], resp)
	if !ok {
		writeJSON(w, http.StatusOK, *resp) // a copy, so that resp stays on the caller's stack
		return
	}
	*scratch = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// appendEstimateResponse appends resp as json.Encoder writes it — field
// order, omitempty, float format, trailing newline — and reports false,
// having appended nothing of use, for what it leaves to encoding/json: a
// non-finite float (an error there) and a string that needs escaping.
func appendEstimateResponse(b []byte, resp *EstimateResponse) ([]byte, bool) {
	if math.IsNaN(resp.TravelSeconds) || math.IsInf(resp.TravelSeconds, 0) ||
		!plainString(resp.TravelHuman) || !plainString(resp.Model) || !plainString(resp.PredictionID) {
		return b, false
	}
	b = append(b, `{"travel_seconds":`...)
	b = appendFloat(b, resp.TravelSeconds)
	b = append(b, `,"travel_human":"`...)
	b = append(b, resp.TravelHuman...)
	b = append(b, '"')
	if resp.Cached {
		b = append(b, `,"cached":true`...)
	}
	if resp.Model != "" {
		b = append(b, `,"model":"`...)
		b = append(b, resp.Model...)
		b = append(b, '"')
	}
	if resp.PredictionID != "" {
		b = append(b, `,"prediction_id":"`...)
		b = append(b, resp.PredictionID...)
		b = append(b, '"')
	}
	return append(b, '}', '\n'), true
}

// plainString reports whether json.Encoder writes s between quotes as it
// stands: ASCII without control characters, the quote, the backslash and the
// three characters it escapes for HTML.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendFloat appends a finite f in encoding/json's format: the shortest
// 'f' rendering, 'e' below 1e-6 and from 1e21, with a two-digit exponent's
// leading zero dropped (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
