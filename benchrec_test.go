package deepod

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchRecordsStamped parses every committed benchmark record,
// BENCH_*.json at the repository root as scripts/benchrec.sh appends it: a
// line without the commit it measured and the runner's shape (nproc, Go
// version, CPU model), or without a result, is a number nobody can
// reproduce. BENCH_replay.json is ttereplay's report, one JSON document
// that is not committed, and is not a record.
func TestBenchRecordsStamped(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "BENCH_replay.json" {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for n, raw := range bytes.Split(b, []byte("\n")) {
			if len(bytes.TrimSpace(raw)) == 0 {
				continue
			}
			lines++
			var rec struct {
				Commit  string          `json:"commit"`
				Nproc   int             `json:"nproc"`
				Go      string          `json:"go"`
				CPU     string          `json:"cpu"`
				Metrics json.RawMessage `json:"metrics"`
				NsPerOp *float64        `json:"ns_per_op"`
			}
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Errorf("%s line %d: %v", f, n+1, err)
				continue
			}
			if rec.Commit == "" || rec.Nproc < 1 || rec.Go == "" || rec.CPU == "" {
				t.Errorf("%s line %d: commit %q, nproc %d, go %q, cpu %q: want the commit and the runner's shape",
					f, n+1, rec.Commit, rec.Nproc, rec.Go, rec.CPU)
			}
			if len(rec.Metrics) == 0 && rec.NsPerOp == nil {
				t.Errorf("%s line %d: neither a bench result (metrics) nor a Go benchmark's ns_per_op", f, n+1)
			}
		}
		if lines == 0 {
			t.Errorf("%s holds no record", f)
		}
	}
}
