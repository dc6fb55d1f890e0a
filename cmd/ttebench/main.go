// Command ttebench drives internal/experiments: it regenerates the tables
// and figures of the paper's evaluation section (§6) on the synthetic
// cities and prints them in the paper's layout. Load testing is not its
// job; that is `go run ./bench`.
//
// Usage:
//
//	ttebench                      # every experiment at the default scale
//	ttebench -scale small         # full-strength three-city run (slow)
//	ttebench -exp table4,fig9     # a subset
//
// -exp takes names from experiments.Experiments (table3 prints Figure 10
// as well); an unknown name fails with the valid ones listed.
//
// The first line of the output names the scale, seed and cities, the
// commit the binary was built from and the runner. `go run` stamps the
// commit only with -buildvcs=true; `make experiments` runs
//
//	go run -buildvcs=true ./cmd/ttebench -scale shape
//
// at a committed tree into internal/experiments/testdata/shape.golden,
// the record EXPERIMENTS.md quotes.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime/debug"
	"strings"
	"time"

	"deepod/internal/benchmeta"
	"deepod/internal/experiments"
)

// header is the output's first line: what ran (scale, seed, cities), from
// which commit (see commit) and on what runner.
func header(bi *debug.BuildInfo, env benchmeta.Env, sc experiments.Scale) string {
	return fmt.Sprintf("ttebench scale=%s seed=%d cities=%s commit=%s go=%s cpus=%d gomaxprocs=%d",
		sc.Name, sc.Seed, strings.Join(sc.CityList(), ","), commit(bi),
		env.GoVersion, env.CPUs, env.GOMAXPROCS)
}

// commit is the VCS revision bi was stamped with, suffixed "+modified" when
// the tree had uncommitted changes, or "unknown" when the build carries no
// stamp (go run or go test without -buildvcs=true, a build outside git).
func commit(bi *debug.BuildInfo) string {
	var rev string
	modified := false
	if bi != nil {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case modified:
		return rev + "+modified"
	}
	return rev
}

// names returns the experiments' names, space separated.
func names(es []experiments.Experiment) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return strings.Join(out, " ")
}

// selectExperiments resolves an -exp value ("all" or a comma-separated
// list) to entries of experiments.Experiments, in its order. An unknown or
// empty element is an error naming the valid experiments.
func selectExperiments(list string) ([]experiments.Experiment, error) {
	if list == "all" {
		return experiments.Experiments, nil
	}
	known := map[string]bool{}
	for _, e := range experiments.Experiments {
		known[e.Name] = true
	}
	want := map[string]bool{}
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q in -exp %q (want 'all' or any of: %s)", name, list, names(experiments.Experiments))
		}
		want[name] = true
	}
	var sel []experiments.Experiment
	for _, e := range experiments.Experiments {
		if want[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// scaleByName resolves a -scale value.
func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "tiny":
		return experiments.TinyScale(), nil
	case "shape":
		return experiments.ShapeScale(), nil
	case "small":
		return experiments.SmallScale(), nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q (want tiny, shape or small)", name)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttebench: ")
	scaleName := flag.String("scale", "tiny", "experiment scale: tiny, shape or small")
	expList := flag.String("exp", "all", "comma-separated experiment list or 'all'")
	flag.Parse()

	sc, err := scaleByName(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	selected, err := selectExperiments(*expList)
	if err != nil {
		log.Fatal(err)
	}

	bi, _ := debug.ReadBuildInfo()
	fmt.Printf("%s\n\n", header(bi, benchmeta.Capture(), sc))
	suite := experiments.NewSuite(sc)
	for _, e := range selected {
		start := time.Now()
		rows, err := e.Run(suite)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Println(e.Render(sc.Name, rows))
		fmt.Printf("[%s took %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
