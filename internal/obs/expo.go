package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Sample is one metric child captured by Snapshot.
type Sample struct {
	Name   string
	Kind   string   // "counter" | "gauge" | "histogram"
	Labels []string // alternating key, value pairs, sorted by key
	// Value holds the counter or gauge value (counters as float64).
	Value float64
	// Histogram fields (Kind == "histogram"); BucketCounts is
	// non-cumulative with the +Inf bucket last.
	BucketUppers []float64
	BucketCounts []uint64
	Count        uint64
	Sum          float64
	// Exemplars holds the latest exemplar per bucket, indexed like
	// BucketCounts (+Inf last); entries are nil for buckets without one.
	// Populated only when exemplar recording has stored any (exemplar.go).
	Exemplars []*Exemplar
}

// Label returns the sample's value for the label key, or "".
func (s Sample) Label(key string) string {
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if s.Labels[i] == key {
			return s.Labels[i+1]
		}
	}
	return ""
}

// Snapshot captures every metric in the registry, sorted by family name
// then label identity. It is the programmatic counterpart of the /metrics
// exposition (ttetrain's phase breakdown reads it).
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []Sample
	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := Sample{Name: f.name, Kind: f.kind, Labels: sortedPairs(f.labels[k])}
			switch m := f.children[k].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *Histogram:
				s.BucketUppers, s.BucketCounts = m.Buckets()
				for _, n := range s.BucketCounts {
					s.Count += n
				}
				s.Sum = m.Sum()
				for i, e := range m.Exemplars() {
					if e != nil {
						if s.Exemplars == nil {
							s.Exemplars = make([]*Exemplar, len(s.BucketCounts))
						}
						s.Exemplars[i] = e
					}
				}
			}
			out = append(out, s)
		}
		f.mu.RUnlock()
	}
	return out
}

func sortedPairs(labels []string) []string {
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, 2*n)
	for _, i := range idx {
		out = append(out, labels[2*i], labels[2*i+1])
	}
	return out
}

// Handler returns the GET /metrics handler exposing the registry in the
// Prometheus text format (version 0.0.4), hand-rolled: one # TYPE (and
// optional # HELP) comment per family, then one line per sample, with
// histograms expanded into cumulative _bucket{le=...}, _sum and _count.
//
// With ?exemplars=1 (or an Accept header requesting openmetrics-text) the
// response switches to the OpenMetrics flavour: histogram _bucket lines
// gain `# {trace_id="..."} value timestamp` exemplar suffixes and the
// stream is terminated with # EOF. Plain scrapes never see exemplar
// syntax, so Prometheus 0.0.4 parsers stay happy.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		openMetrics := req.URL.Query().Get("exemplars") == "1" ||
			strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text")
		if openMetrics {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		if req.Method == http.MethodHead {
			return
		}
		var b strings.Builder
		r.writeText(&b, openMetrics)
		if openMetrics {
			b.WriteString("# EOF\n")
		}
		_, _ = w.Write([]byte(b.String()))
	})
}

func (r *Registry) writeText(b *strings.Builder, exemplars bool) {
	samples := r.Snapshot()
	// Group consecutive samples by family for the TYPE/HELP headers.
	helps := map[string]string{}
	r.mu.RLock()
	for name, f := range r.families {
		f.mu.RLock()
		if f.help != "" {
			helps[name] = f.help
		}
		f.mu.RUnlock()
	}
	r.mu.RUnlock()

	last := ""
	for _, s := range samples {
		if s.Name != last {
			last = s.Name
			if h := helps[s.Name]; h != "" {
				fmt.Fprintf(b, "# HELP %s %s\n", s.Name, strings.ReplaceAll(h, "\n", " "))
			}
			kind := s.Kind
			if kind == "" {
				kind = "untyped"
			}
			fmt.Fprintf(b, "# TYPE %s %s\n", s.Name, kind)
		}
		switch s.Kind {
		case "histogram":
			var cum uint64
			for i, c := range s.BucketCounts {
				cum += c
				le := "+Inf"
				if i < len(s.BucketUppers) {
					le = formatFloat(s.BucketUppers[i])
				}
				fmt.Fprintf(b, "%s_bucket%s %d", s.Name, labelString(s.Labels, "le", le), cum)
				if exemplars && i < len(s.Exemplars) && s.Exemplars[i] != nil {
					e := s.Exemplars[i]
					fmt.Fprintf(b, " # {trace_id=\"%s\"} %s %.3f",
						escapeLabel(e.TraceID), formatFloat(e.Value), e.Unix)
				}
				b.WriteByte('\n')
			}
			fmt.Fprintf(b, "%s_sum%s %s\n", s.Name, labelString(s.Labels), formatFloat(s.Sum))
			fmt.Fprintf(b, "%s_count%s %d\n", s.Name, labelString(s.Labels), s.Count)
		default:
			fmt.Fprintf(b, "%s%s %s\n", s.Name, labelString(s.Labels), formatFloat(s.Value))
		}
	}
}

// labelString renders {k="v",...} from sorted pairs plus optional extras,
// or "" when there are no labels at all.
func labelString(pairs []string, extra ...string) string {
	if len(pairs) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(k, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		emit(pairs[i], pairs[i+1])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		emit(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
