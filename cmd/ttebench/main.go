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
// -exp takes names from the experiments table below (table3 prints
// Figure 10 as well); an unknown name fails with the valid ones listed.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"deepod/internal/experiments"
)

// experiment is one runnable entry of the paper's evaluation section.
type experiment struct {
	name string
	fn   func(s *experiments.Suite) (fmt.Stringer, error)
}

// firstCity is the city the single-city figures run on.
func firstCity(s *experiments.Suite) string { return s.Scale.CityList()[0] }

// experimentTable lists every experiment in the order "all" runs them.
// Name validation, selection and dispatch all read it.
var experimentTable = []experiment{
	{"table2", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunTable2(s.Scale) }},
	{"fig5a", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunFigure5a(s.Scale) }},
	{"table3", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunTable3Figure10(s) }},
	{"table4", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunTable4(s) }},
	{"table5", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunTable5(s) }},
	{"table6", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunTable6(s) }},
	{"table7", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunTable7(s) }},
	{"fig8", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunFigure8(s.Scale, nil) }},
	{"fig9", func(s *experiments.Suite) (fmt.Stringer, error) {
		return experiments.RunFigure9(s.Scale, firstCity(s), nil)
	}},
	{"fig11", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunFigure11(s, firstCity(s)) }},
	{"fig12", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunFigure12(s, firstCity(s), 50) }},
	{"fig13", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunFigure13(s, firstCity(s), 50) }},
	{"fig14a", func(s *experiments.Suite) (fmt.Stringer, error) {
		return experiments.RunFigure14a(s.Scale, firstCity(s), nil)
	}},
	{"fig14b", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunFigure14b(s, firstCity(s)) }},
	{"embedstudy", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunEmbedStudy(s.Scale) }},
	{"ext-route", func(s *experiments.Suite) (fmt.Stringer, error) { return experiments.RunExtRoute(s) }},
}

// names returns the experiments' names, space separated.
func names(es []experiment) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return strings.Join(out, " ")
}

// selectExperiments resolves an -exp value ("all" or a comma-separated
// list) to table entries, in table order. An unknown or empty element is
// an error naming the valid experiments.
func selectExperiments(list string) ([]experiment, error) {
	if list == "all" {
		return experimentTable, nil
	}
	known := map[string]bool{}
	for _, e := range experimentTable {
		known[e.name] = true
	}
	want := map[string]bool{}
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q in -exp %q (want 'all' or any of: %s)", name, list, names(experimentTable))
		}
		want[name] = true
	}
	var sel []experiment
	for _, e := range experimentTable {
		if want[e.name] {
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

	suite := experiments.NewSuite(sc)
	for _, e := range selected {
		start := time.Now()
		res, err := e.fn(suite)
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s took %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}
