package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// shapeRecord is the recorded `ttebench -scale shape` run that
// EXPERIMENTS.md quotes. `make experiments` rewrites it:
//
//	go run -buildvcs=true ./cmd/ttebench -scale shape > internal/experiments/testdata/shape.golden
const shapeRecord = "testdata/shape.golden"

// readLines returns path's lines with trailing spaces trimmed.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return trimLines(string(b))
}

func trimLines(s string) []string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return lines
}

// recordBlock is the block of record that starts at the line beginning
// with title and runs up to the blank line after it: one experiment's
// rendered text.
func recordBlock(t *testing.T, record []string, title string) []string {
	t.Helper()
	for i, l := range record {
		if !strings.HasPrefix(l, title) {
			continue
		}
		end := i
		for end < len(record) && record[end] != "" {
			end++
		}
		return record[i:end]
	}
	t.Fatalf("%s has no line starting %q", shapeRecord, title)
	return nil
}

// firstDiff is the first line at which got and want differ, or "" when
// they are equal.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	return ""
}

// textBlocks returns the lines of every ```text fenced block in md.
func textBlocks(md []string) [][]string {
	var blocks [][]string
	for i := 0; i < len(md); i++ {
		if md[i] != "```text" {
			continue
		}
		end := i + 1
		for end < len(md) && md[end] != "```" {
			end++
		}
		blocks = append(blocks, md[i+1:end])
		i = end
	}
	return blocks
}

// TestShapeRecordQuoted holds EXPERIMENTS.md to the recorded shape run: the
// record names a committed build at ShapeScale, and every ```text block of
// EXPERIMENTS.md is a run of consecutive lines of it.
func TestShapeRecordQuoted(t *testing.T) {
	record := readLines(t, shapeRecord)
	var scale, commit string
	for _, f := range strings.Fields(record[0]) {
		if v, ok := strings.CutPrefix(f, "scale="); ok {
			scale = v
		}
		if v, ok := strings.CutPrefix(f, "commit="); ok {
			commit = v
		}
	}
	if scale != "shape" || commit == "" || commit == "unknown" || strings.HasSuffix(commit, "+modified") {
		t.Errorf("%s header %q: want scale=shape and the commit of a clean stamped build", shapeRecord, record[0])
	}

	md := readLines(t, "../../EXPERIMENTS.md")
	text := strings.Join(md, "\n")
	for _, stale := range []string{"Note (PR", "ttebench_shape.txt"} {
		if strings.Contains(text, stale) {
			t.Errorf("EXPERIMENTS.md still contains %q", stale)
		}
	}
	blocks := textBlocks(md)
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md quotes no ```text block")
	}
	for _, block := range blocks {
		if len(block) == 0 {
			t.Error("EXPERIMENTS.md has an empty ```text block")
			continue
		}
		// Try each record line equal to the block's first; report the
		// last attempt's first differing line.
		diff := fmt.Sprintf("its first line %q is not in %s", block[0], shapeRecord)
		quoted := false
		for i := range record {
			if record[i] != block[0] {
				continue
			}
			end := min(i+len(block), len(record))
			if diff = firstDiff(block, record[i:end]); diff == "" {
				quoted = true
				break
			}
		}
		if !quoted {
			t.Errorf("EXPERIMENTS.md block %q does not quote %s: %s", block[0], shapeRecord, diff)
		}
	}
}
