package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepod"
	"deepod/internal/core"
)

// TestSaveModelRefusesCollapsed: a run whose validation predictions
// spread under core.CollapseFloor of the targets writes no checkpoint and
// names its ratio; a run above the floor saves.
func TestSaveModelRefusesCollapsed(t *testing.T) {
	c, err := deepod.BuildCity("chengdu-s", deepod.CityOptions{Orders: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(deepod.SmallConfig(), c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	collapsed := filepath.Join(dir, "collapsed.gob")
	err = saveModel(collapsed, m, &core.TrainStats{PredSpreadRatio: 0.0123})
	if err == nil || !strings.Contains(err.Error(), "collapsed") || !strings.Contains(err.Error(), "0.0123") {
		t.Fatalf("saveModel(collapsed) = %v, want a refusal naming the ratio 0.0123", err)
	}
	if _, err := os.Stat(collapsed); !os.IsNotExist(err) {
		t.Fatalf("a collapsed model left a file behind: %v", err)
	}

	ok := filepath.Join(dir, "ok.gob")
	if err := saveModel(ok, m, &core.TrainStats{PredSpreadRatio: 0.5}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(ok); err != nil || fi.Size() == 0 {
		t.Fatalf("saved checkpoint: %v, %v", fi, err)
	}
}
