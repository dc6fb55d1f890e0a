package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if names(all) != names(experimentTable) {
		t.Fatalf("all selected %q, want the whole table %q", names(all), names(experimentTable))
	}

	// A subset selects exactly its members, in table order whatever the
	// order (or repetition, or spacing) on the command line.
	sel, err := selectExperiments("fig9, table4,table2,fig9")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(sel); got != "table2 table4 fig9" {
		t.Fatalf("subset selected %q, want %q", got, "table2 table4 fig9")
	}

	for _, bad := range []string{"tabel4", "table4,", "table4,,fig9", "", "table4,all", "Table4"} {
		sel, err := selectExperiments(bad)
		if err == nil {
			t.Errorf("-exp %q: selected %q, want an error", bad, names(sel))
			continue
		}
		// The message must name what the user may type instead.
		if !strings.Contains(err.Error(), names(experimentTable)) {
			t.Errorf("-exp %q: error %q does not list the valid experiments", bad, err)
		}
	}
}

func TestExperimentTableNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experimentTable {
		if e.name == "" || e.name == "all" || seen[e.name] || e.fn == nil {
			t.Errorf("bad table entry %q", e.name)
		}
		seen[e.name] = true
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "shape", "small"} {
		sc, err := scaleByName(name)
		if err != nil {
			t.Errorf("-scale %s: %v", name, err)
		} else if len(sc.CityList()) == 0 {
			t.Errorf("-scale %s: no cities", name)
		}
	}
	if _, err := scaleByName("huge"); err == nil || !strings.Contains(err.Error(), "tiny, shape or small") {
		t.Errorf("-scale huge: error %v, want one naming the valid scales", err)
	}
}
