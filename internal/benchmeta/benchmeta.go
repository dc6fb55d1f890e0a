// Package benchmeta captures the benchmark-host environment that every
// benchmark report embeds, so reports from different machines (and CI
// runs) stay comparable and gate decisions are explainable after the
// fact. bench/ and ttereplay share this one struct instead of
// hand-rolling their own subsets with drifting field names.
package benchmeta

import "runtime"

// Env identifies the host a benchmark ran on. Embed it in a report
// struct; the fields flatten into the report's top level.
type Env struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Capture reads the current process's environment.
func Capture() Env {
	return Env{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}
