package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json that -compare applies.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// resultSet is workload → metric → one value per run.
type resultSet map[string]map[string][]float64

// readResultSet reads, for every workload, dir/<workload>.jsonl: the last
// lines untraced runs printed, one per line, as
//
//	go run ./bench -workload W -seed N >> dir/W.jsonl
//
// collects them.
func readResultSet(dir string, workloads []string) (resultSet, error) {
	set := resultSet{}
	for _, wl := range workloads {
		path := filepath.Join(dir, wl+".jsonl")
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		set[wl] = map[string][]float64{}
		for n, raw := range bytes.Split(b, []byte("\n")) {
			if len(bytes.TrimSpace(raw)) == 0 {
				continue
			}
			var l line
			if err := json.Unmarshal(raw, &l); err != nil {
				return nil, fmt.Errorf("%s line %d: %w", path, n+1, err)
			}
			if !l.Correct {
				return nil, fmt.Errorf("%s line %d: the run failed its correctness check", path, n+1)
			}
			for name, m := range l.Metrics {
				set[wl][name] = append(set[wl][name], m.Value)
			}
		}
	}
	return set, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to two samples. b is worse when its
// median is beyond a's by more than bound × a's median in the bad
// direction. A row whose own run-to-run spread (the wider of the two
// interquartile ranges, as a share of its median) exceeds the bound cannot
// show "no worse" and is unresolved — unless every run of b reads better
// than every run of a.
func judge(a, b []float64, lowerIsBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	worsening := (mb - ma) / ma
	if !lowerIsBetter {
		worsening = (ma - mb) / ma
	}
	if worsening > bound {
		return verdictWorse
	}
	if spread(a) > bound || spread(b) > bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		allBetter := sb[len(sb)-1] < sa[0]
		if !lowerIsBetter {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	return verdictOK
}

// spread is the interquartile range as a share of the median: the quantity
// the benchmark's acceptance check holds below each bound.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / m
}

// runCompare prints one row per (workload, end-to-end metric) of
// BENCHMARK.json with both medians and quartiles and the verdict. It
// fails when a row is missing from either set, so a comparison can never
// pass by omission.
func runCompare(pathA, pathB string, w io.Writer) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var names []string
	for _, wl := range bf.Workloads {
		names = append(names, wl.Name)
	}
	a, err := readResultSet(pathA, names)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB, names)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbound\tn(a)\tmedian(a)\tq1..q3(a)\tn(b)\tmedian(b)\tq1..q3(b)\tchange\tverdict")
	counts := map[string]int{}
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s/%s: %d runs in %s, %d in %s", wl.Name, m.Name, len(va), pathA, len(vb), pathB)
			}
			lower := m.Better == "lower"
			v := judge(va, vb, lower, m.Bound)
			counts[v]++
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\t%d\t%.4g\t%.4g..%.4g\t%d\t%.4g\t%.4g..%.4g\t%+.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, 100*m.Bound, len(va), median(va), a1, a3,
				len(vb), median(vb), b1, b3, 100*(median(vb)-median(va))/median(va), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", counts[verdictWorse])
	}
	return nil
}
