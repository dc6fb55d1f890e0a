package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"deepod/internal/geo"
	"deepod/internal/traffic"
)

// fuzzBodyLimit is the MaxBytesReader limit the decode targets run under:
// small, so the fuzzer crosses it.
const fuzzBodyLimit = 160

const canonicalBody = `{"origin":{"X":1834.5678,"Y":2245.6789},"dest":{"X":3456.789,"Y":456.7891},"depart_sec":1.234567891e+06}`

// decodeCorpus seeds FuzzDecodeEstimate and is TestDecodeEstimateMatchesJSON's
// table: every way a body can differ from the canonical one.
var decodeCorpus = []string{
	canonicalBody,
	canonicalBody + " \t\r\n",
	" \n" + canonicalBody,
	canonicalBody + "garbage",
	canonicalBody + canonicalBody,
	`{"dest":{"Y":4,"X":3},"depart_sec":5,"origin":{"Y":2,"X":1}}`,                      // reordered
	`{"origin":{"X":1,"Y":2,"Z":9},"dest":{"X":3,"Y":4},"depart_sec":5,"extra":[1,{}]}`, // unknown
	`{"origin":{"X":1,"Y":2},"origin":{"X":7},"dest":{"X":3,"Y":4},"depart_sec":5}`,     // duplicate
	`{"ORIGIN":{"x":1,"y":2},"Dest":{"X":3,"Y":4},"DEPART_SEC":5}`,                      // case-folded
	`{"origin":{"X": 1,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,                     // inner whitespace
	`null`,
	`{"origin":null,"dest":{"X":3,"Y":4},"depart_sec":null}`,
	`{"origin":{"X":1e999,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,
	`{"origin":{"X":-0,"Y":-0.0},"dest":{"X":0e0,"Y":1E+2},"depart_sec":-1e-7}`,
	`{"origin":{"X":01,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,
	`{"origin":{"X":1.,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,
	`{"origin":{"X":.5,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,
	`{"origin":{"X":-,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,
	`{"origin":{"X":1e,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,
	`{"origin":{"X":"1","Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}`,
	`{"origin":{"X":1,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":12`, // cut mid-number
	`{"origin":{"X":1,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5`,
	`{"origin":{"X":1,"Y":2},"dest":{"X":3,"Y":4},"depart_sec":5}` + strings.Repeat(" ", fuzzBodyLimit),
	`{"origin":{"X":1,"Y":2},"dest":{"X":3,"Y":4},` + strings.Repeat(" ", fuzzBodyLimit) + `"depart_sec":5}`, // over the limit
	``,
	`[]`,
	`{}`,
}

func statusOf(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// sameDecode holds decodeEstimate to json.NewDecoder(r).Decode over body
// under a fuzzBodyLimit MaxBytesReader, delivered in reads of at most chunk
// bytes: the same five numbers by Float64bits, the same error text or none,
// and so the same HTTP status.
func sameDecode(t *testing.T, body []byte, chunk int) {
	t.Helper()
	reader := func() io.Reader {
		var src io.Reader = bytes.NewReader(body)
		if chunk > 0 {
			src = chunkReader{src, chunk}
		}
		return http.MaxBytesReader(nil, io.NopCloser(src), fuzzBodyLimit)
	}
	var want, got EstimateRequest
	wantErr := json.NewDecoder(reader()).Decode(&want)
	gotErr := decodeEstimate(reader(), make([]byte, 0, 512), &got)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
	}
	if statusOf(gotErr) != statusOf(wantErr) {
		t.Fatalf("body %q: status %d, encoding/json %d", body, statusOf(gotErr), statusOf(wantErr))
	}
	w := [5]float64{want.Origin.X, want.Origin.Y, want.Dest.X, want.Dest.Y, want.DepartSec}
	g := [5]float64{got.Origin.X, got.Origin.Y, got.Dest.X, got.Dest.Y, got.DepartSec}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("body %q: number %d is %v, encoding/json %v", body, i, g[i], w[i])
		}
	}
}

// chunkReader delivers its reader at most n bytes a Read: a body arriving
// in pieces.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func TestDecodeEstimateMatchesJSON(t *testing.T) {
	for _, body := range decodeCorpus {
		for _, chunk := range []int{0, 1, 7} {
			sameDecode(t, []byte(body), chunk)
		}
	}
	// The canonical body is the one the scanner takes itself.
	var req EstimateRequest
	if !scanEstimate([]byte(canonicalBody+"\n"), &req) {
		t.Fatal("scanner refused the canonical body")
	}
	if want := (EstimateRequest{Origin: geo.Point{X: 1834.5678, Y: 2245.6789}, Dest: geo.Point{X: 3456.789, Y: 456.7891}, DepartSec: 1.234567891e+06}); req != want {
		t.Fatalf("scanned %+v, want %+v", req, want)
	}
	if b, err := json.Marshal(req); err != nil || !scanEstimate(b, &req) {
		t.Fatalf("scanner refused json.Marshal's rendering %s (%v)", b, err)
	}
}

func FuzzDecodeEstimate(f *testing.F) {
	for _, body := range decodeCorpus {
		f.Add([]byte(body), 0)
	}
	f.Add([]byte(canonicalBody), 11)
	f.Fuzz(func(t *testing.T, body []byte, chunk int) {
		sameDecode(t, body, chunk%64)
	})
}

const canonicalProbe = `{"vehicle":"veh-00042","x":1834.57,"y":2245.68,"t":115203.125}`

// probesCorpus seeds FuzzDecodeProbes and is TestDecodeProbesMatchesJSON's
// table: every way a /probes body can differ from canonical probes, one to
// a line.
var probesCorpus = []string{
	canonicalProbe + "\n" + canonicalProbe + "\n",
	canonicalProbe + "\r\n" + canonicalProbe + "\r\n",   // CRLF
	"\n\n" + canonicalProbe + "\n\n\n" + canonicalProbe, // blank lines
	canonicalProbe, // no trailing newline
	" \t" + canonicalProbe + " \t\n",
	canonicalProbe + canonicalProbe, // no separator
	canonicalProbe + ",\n" + canonicalProbe,
	canonicalProbe + "\f" + canonicalProbe,
	canonicalProbe + "\u00a0" + canonicalProbe,
	`{}{}`,
	`{"vehicle":"","x":0,"y":0,"t":0}`,
	`{"vehicle":"a ~!#$%&'()*+,-./:;<=>?@[]^_{|}","x":1,"y":2,"t":3}`, // every kind of printable ASCII
	`{"x":1,"vehicle":"v","y":2,"t":3}`,                               // reordered
	`{"vehicle":"v","x":1,"y":2,"t":3,"speed":[1,{}]}`,                // unknown
	`{"vehicle":"v","x":1,"y":2,"t":3,"x":4}`,                         // duplicate
	`{"VEHICLE":"v","X":1,"y":2,"T":3}`,                               // case-folded
	`{"vehicle": "v","x":1,"y":2,"t":3}`,                              // inner whitespace
	`{"vehicle":"\u0041","x":1,"y":2,"t":3}`,                          // escapes
	`{"vehicle":"a\"b\\c\/d\n","x":1,"y":2,"t":3}`,
	`{"vehicle":"véh","x":1,"y":2,"t":3}`,                // non-ASCII
	"{\"vehicle\":\"\xff\xfe\",\"x\":1,\"y\":2,\"t\":3}", // invalid UTF-8
	"{\"vehicle\":\"a\x01\",\"x\":1,\"y\":2,\"t\":3}",    // control character
	`{"vehicle":"v\u00e9","x":1,"y":2,"t":3}`,
	`{"vehicle":7,"x":1,"y":2,"t":3}`,
	`null`,
	`null` + "\n" + canonicalProbe,
	canonicalProbe + "\nnull",
	`{"vehicle":null,"x":null,"y":2,"t":3}`,
	`{"vehicle":"v","x":"1","y":2,"t":3}`, // a string number
	`{"vehicle":"v","x":1e999,"y":2,"t":3}`,
	canonicalProbe + "\n" + `{"vehicle":"v","x":1,"y":2,"t":-1e999}`,
	`{"vehicle":"v","x":-0,"y":-0.0,"t":0e0}`,
	`{"vehicle":"v","x":1E+2,"y":-1e-7,"t":5e-324}`,
	`{"vehicle":"v","x":01,"y":2,"t":3}`,
	`{"vehicle":"v","x":1.,"y":2,"t":3}`,
	`{"vehicle":"v","x":.5,"y":2,"t":3}`,
	`{"vehicle":"v","x":-,"y":2,"t":3}`,
	`{"vehicle":"v","x":1e,"y":2,"t":3}`,
	`{"vehicle":"v","x":1,"y":2,"t":12`, // cut mid-number
	canonicalProbe + "\n" + `{"vehicle":"v","x":1,"y":2,"t":3`,
	canonicalProbe + "\n" + `{"vehicle":"v","x":1,"y":2,"t":3}garbage`,
	canonicalProbe + "\n" + `not json at all`,
	canonicalProbe + "\n]",
	`[` + canonicalProbe + `]`,
	``,
	" \n\t\r\n ",
	canonicalProbe + "\n" + strings.Repeat(" ", fuzzBodyLimit),               // over the limit in whitespace
	strings.Repeat(canonicalProbe+"\n", fuzzBodyLimit/len(canonicalProbe)+1), // over the limit in probes
	`{"vehicle":"` + strings.Repeat("v", fuzzBodyLimit) + `","x":1,"y":2,"t":3}`,
}

// plainProbes is the loop decodeProbes is held to: json.NewDecoder over r,
// one probe a Decode, ending at io.EOF.
func plainProbes(r io.Reader) ([]traffic.Probe, error) {
	dec := json.NewDecoder(r)
	var batch []traffic.Probe
	for {
		var p traffic.Probe
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				return batch, nil
			}
			return batch, err
		}
		batch = append(batch, p)
	}
}

// sameProbes holds decodeProbes to plainProbes over body under a
// fuzzBodyLimit MaxBytesReader, delivered in reads of at most chunk bytes:
// the same probes, vehicles byte for byte and numbers by Float64bits, and so
// the same "bad probe at line N"; the same error text or none, and so the
// same HTTP status.
func sameProbes(t *testing.T, body []byte, chunk int) {
	t.Helper()
	reader := func() io.Reader {
		var src io.Reader = bytes.NewReader(body)
		if chunk > 0 {
			src = chunkReader{src, chunk}
		}
		return http.MaxBytesReader(nil, io.NopCloser(src), fuzzBodyLimit)
	}
	want, wantErr := plainProbes(reader())
	// A buffer smaller than most bodies, with stale bytes: decodeProbes
	// must grow it and start it empty.
	_, got, gotErr := decodeProbes(reader(), []byte("stale"), nil)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
	}
	if statusOf(gotErr) != statusOf(wantErr) {
		t.Fatalf("body %q: status %d, encoding/json %d", body, statusOf(gotErr), statusOf(wantErr))
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d probes, encoding/json %d", body, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Vehicle != w.Vehicle || math.Float64bits(g.X) != math.Float64bits(w.X) ||
			math.Float64bits(g.Y) != math.Float64bits(w.Y) || math.Float64bits(g.T) != math.Float64bits(w.T) {
			t.Fatalf("body %q: probe %d is %+v, encoding/json %+v", body, i, g, w)
		}
	}
}

func TestDecodeProbesMatchesJSON(t *testing.T) {
	for _, body := range probesCorpus {
		for _, chunk := range []int{0, 1, 7, 64} {
			sameProbes(t, []byte(body), chunk)
		}
	}
	// What json.Marshal writes of a probe, and what the benchmark's client
	// sends, the scanner takes itself.
	want := []traffic.Probe{
		{Vehicle: "veh-00042", X: 1834.57, Y: 2245.68, T: 115203.125},
		{Vehicle: "", X: -0.5, Y: 1e-7, T: 1e21},
	}
	var body []byte
	for _, p := range want {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, b...), '\n')
	}
	body = append(body, benchProbesBody(32)...)
	got, ok := scanProbes(body, nil)
	if !ok || len(got) != len(want)+32 {
		t.Fatalf("scanner refused canonical probes (%v, %d probes): %s", ok, len(got), body)
	}
	for i, p := range want {
		if got[i] != p {
			t.Fatalf("probe %d scanned as %+v, want %+v", i, got[i], p)
		}
	}
}

func FuzzDecodeProbes(f *testing.F) {
	for _, body := range probesCorpus {
		f.Add([]byte(body), 0)
	}
	f.Add([]byte(canonicalProbe+"\n"+canonicalProbe), 11)
	f.Fuzz(func(t *testing.T, body []byte, chunk int) {
		sameProbes(t, body, chunk%128)
	})
}

// benchProbesBody renders n probes as the benchmark's client does:
// centimetres and milliseconds through strconv's shortest 'f' format, one
// to a line.
func benchProbesBody(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, `{"vehicle":"veh-`...)
		b = strconv.AppendInt(b, int64(100+i%7), 10)
		b = append(b, `","x":`...)
		b = strconv.AppendFloat(b, 1234.56+float64(i)*7.01, 'f', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, 987.6-float64(i)*3.3, 'f', -1, 64)
		b = append(b, `,"t":`...)
		b = strconv.AppendFloat(b, 633600.125+float64(i)*5, 'f', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}

// BenchmarkDecodeProbes is what the /probes decoder costs a request: one
// 32-probe canonical body into a reused buffer and batch.
func BenchmarkDecodeProbes(b *testing.B) {
	body := benchProbesBody(32)
	buf := make([]byte, 0, 4<<10)
	batch := make([]traffic.Probe, 0, 64)
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		var err error
		buf, batch, err = decodeProbes(rd, buf, batch[:0])
		if err != nil || len(batch) != 32 {
			b.Fatal(len(batch), err)
		}
	}
}

// sameEncode holds appendEstimateResponse to json.Encoder's bytes, and its
// refusals to what it says it leaves to encoding/json: a float that is an
// error there, a string with a byte that is escaped there or is not ASCII.
func sameEncode(t *testing.T, resp EstimateResponse) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(resp)
	got, ok := appendEstimateResponse(nil, &resp)
	if !ok {
		left := func(r rune) bool { return r < 0x20 || r >= 0x80 || strings.ContainsRune(`"\<>&`, r) }
		if wantErr == nil && !strings.ContainsFunc(resp.TravelHuman+resp.Model+resp.PredictionID, left) {
			t.Fatalf("refused %+v, which it could have written", resp)
		}
		return
	}
	if wantErr != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%+v: wrote %q, encoding/json %q (%v)", resp, got, want.Bytes(), wantErr)
	}
}

var encodeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 655.25, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.1 + 0.2, 1234567.891}

var encodeStrings = []string{"", "10m55s", "a1b2c3d4e5f6", `q"uote`, `back\slash`, "<html>", "a&b", "tab\tnl\n", "\x00\x1f", "\x7f", "héllo", "\xff\xfe", " "}

func TestEncodeEstimateMatchesJSON(t *testing.T) {
	for _, f := range encodeFloats {
		for _, cached := range []bool{false, true} {
			sameEncode(t, EstimateResponse{TravelSeconds: f, TravelHuman: humanDuration(f), Cached: cached, Model: "a1b2c3d4e5f6", PredictionID: "q-1z"})
		}
	}
	for i, s := range encodeStrings {
		sameEncode(t, EstimateResponse{TravelSeconds: 1, TravelHuman: s})
		sameEncode(t, EstimateResponse{TravelSeconds: 1, TravelHuman: "1s", Model: s, PredictionID: encodeStrings[len(encodeStrings)-1-i]})
	}
	// What the engine path answers is on the append path, not the fallback.
	if _, ok := appendEstimateResponse(nil, &EstimateResponse{TravelSeconds: 655.25, TravelHuman: humanDuration(655.25), Cached: true, Model: "a1b2c3d4e5f6", PredictionID: "q-1z"}); !ok {
		t.Fatal("an ordinary answer fell back to encoding/json")
	}
}

func FuzzEncodeEstimate(f *testing.F) {
	for i, v := range encodeFloats {
		s := encodeStrings[i%len(encodeStrings)]
		f.Add(math.Float64bits(v), "10m55s", i%2 == 0, s, "q-1z")
		f.Add(math.Float64bits(v), s, i%2 == 1, "a1b2c3d4e5f6", s)
	}
	f.Fuzz(func(t *testing.T, bits uint64, human string, cached bool, model, id string) {
		sameEncode(t, EstimateResponse{TravelSeconds: math.Float64frombits(bits), TravelHuman: human, Cached: cached, Model: model, PredictionID: id})
	})
}

// BenchmarkEstimateCodec is what the codec costs a request: one canonical
// body decoded and one engine-path answer encoded.
func BenchmarkEstimateCodec(b *testing.B) {
	body := []byte(canonicalBody)
	resp := EstimateResponse{TravelSeconds: 655.2512345678, TravelHuman: "10m55s", Model: "a1b2c3d4e5f6"}
	scratch := make([]byte, 0, 512)
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		var req EstimateRequest
		if err := decodeEstimate(rd, scratch, &req); err != nil {
			b.Fatal(err)
		}
		resp.TravelSeconds += req.DepartSec * 1e-12
		out, ok := appendEstimateResponse(scratch[:0], &resp)
		if !ok || len(out) == 0 {
			b.Fatal("fell back")
		}
	}
}
