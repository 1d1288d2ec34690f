package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cmp8.txt from what the code gives")

// TestCmp8Chaos runs the chaos ablation in quick mode: its assertions — every
// injected fault detected-and-retried or surfaced as a typed error, every
// recovery bit-identical in levels and parents — are the test, and its table,
// the injected column included, is pinned byte for byte in testdata/cmp8.txt
// (the schedule is deterministic). A deliberate change re-baselines with
// go test ./internal/experiments -run TestCmp8Chaos -update.
func TestCmp8Chaos(t *testing.T) {
	tab, err := Cmp8Chaos(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("cmp8 produced no cells")
	}
	var got bytes.Buffer
	tab.Render(&got)
	golden := filepath.Join("testdata", "cmp8.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("cmp8's table moved from %s:\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
}
