package main

import (
	"runtime/debug"
	"strings"
	"testing"

	"deepod/internal/benchmeta"
	"deepod/internal/experiments"
)

func TestHeader(t *testing.T) {
	stamped := func(modified string) *debug.BuildInfo {
		return &debug.BuildInfo{Settings: []debug.BuildSetting{
			{Key: "vcs", Value: "git"},
			{Key: "vcs.revision", Value: "0123abcd"},
			{Key: "vcs.modified", Value: modified},
		}}
	}
	env := benchmeta.Env{CPUs: 4, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	const rest = " go=go1.24.0 cpus=4 gomaxprocs=2"
	for _, tc := range []struct {
		name string
		bi   *debug.BuildInfo
		want string
	}{
		{"clean", stamped("false"), "ttebench scale=shape seed=1 cities=chengdu-s commit=0123abcd" + rest},
		{"modified", stamped("true"), "ttebench scale=shape seed=1 cities=chengdu-s commit=0123abcd+modified" + rest},
		{"unstamped", &debug.BuildInfo{}, "ttebench scale=shape seed=1 cities=chengdu-s commit=unknown" + rest},
	} {
		if got := header(tc.bi, env, experiments.ShapeScale()); got != tc.want {
			t.Errorf("%s build:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if names(all) != names(experiments.Experiments) {
		t.Fatalf("all selected %q, want the whole table %q", names(all), names(experiments.Experiments))
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
		if !strings.Contains(err.Error(), names(experiments.Experiments)) {
			t.Errorf("-exp %q: error %q does not list the valid experiments", bad, err)
		}
	}
}

func TestExperimentTableNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments.Experiments {
		if e.Name == "" || e.Name == "all" || seen[e.Name] || e.Run == nil || e.Render == nil {
			t.Errorf("bad table entry %q", e.Name)
		}
		seen[e.Name] = true
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
