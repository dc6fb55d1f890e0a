package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// envelope unifies the /debug/* surface: every JSON response carries a
// generated_at stamp as its first field and the uniform Content-Type, and
// every error — whether the inner handler wrote JSON or http.Error text —
// comes out as {"generated_at": ..., "error": "..."}. The inner handlers
// keep their existing payload shapes (the stamp is spliced into the
// object, so typed consumers just ignore an unknown field), and non-JSON
// success bodies (recorder segment downloads) pass through byte-for-byte.
func envelope(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bw := &bufferedResponse{header: make(http.Header)}
		h.ServeHTTP(bw, r)

		code := bw.status()
		body := bw.buf.Bytes()
		ok2xx := code >= 200 && code < 300
		isJSON := strings.Contains(bw.header.Get("Content-Type"), "application/json")
		if ok2xx && !isJSON {
			bw.copyTo(w)
			return
		}

		ts := time.Now().UTC().Format(time.RFC3339Nano)
		if stamped, ok := spliceGeneratedAt(body, ts); ok {
			body = stamped
		} else if !ok2xx {
			// http.Error-style text (or an empty body): normalize to the
			// uniform error shape.
			msg := strings.TrimSpace(string(body))
			if msg == "" {
				msg = http.StatusText(code)
			}
			body, _ = json.Marshal(map[string]string{"generated_at": ts, "error": msg})
			body = append(body, '\n')
		}
		for k, vs := range bw.header {
			if k == "Content-Length" || k == "Content-Type" {
				continue
			}
			w.Header()[k] = vs
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(body)
	})
}

// spliceGeneratedAt rewrites a JSON object body to carry
// "generated_at" as its first field. Returns false when the body is not a
// JSON object (arrays and non-JSON text are left to the caller).
func spliceGeneratedAt(body []byte, ts string) ([]byte, bool) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return nil, false
	}
	rest := bytes.TrimLeft(trimmed[1:], " \t\r\n")
	out := make([]byte, 0, len(trimmed)+len(ts)+20)
	out = append(out, '{')
	out = append(out, `"generated_at":"`...)
	out = append(out, ts...)
	out = append(out, '"')
	if len(rest) > 0 && rest[0] != '}' {
		out = append(out, ',')
	}
	out = append(out, trimmed[1:]...)
	return out, true
}

// bufferedResponse captures a handler's response so the envelope can
// rewrite it before anything reaches the wire.
type bufferedResponse struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.buf.Write(p)
}

func (b *bufferedResponse) status() int {
	if b.code == 0 {
		return http.StatusOK
	}
	return b.code
}

// copyTo replays the buffered response verbatim.
func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		w.Header()[k] = vs
	}
	w.WriteHeader(b.status())
	_, _ = w.Write(b.buf.Bytes())
}
