package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
)

func TestLoadGraphFromRMAT(t *testing.T) {
	el, err := loadGraph("", 8)
	if err != nil {
		t.Fatal(err)
	}
	if el.N != 256 || el.M() != 256*32 {
		t.Fatalf("sizes %d/%d", el.N, el.M())
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.gcbf")
	want := gen.Path(12)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, want); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadGraph(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.M() != want.M() {
		t.Fatalf("loaded %d/%d, want %d/%d", got.N, got.M(), want.N, want.M())
	}
}

func TestLoadGraphErrors(t *testing.T) {
	if _, err := loadGraph("", 0); err == nil {
		t.Fatal("accepted no input")
	}
	if _, err := loadGraph("x.gcbf", 8); err == nil {
		t.Fatal("accepted both inputs")
	}
	if _, err := loadGraph("/does/not/exist.gcbf", 0); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestMB(t *testing.T) {
	if mb(1<<20) != 1.0 {
		t.Fatalf("mb(1MB) = %f", mb(1<<20))
	}
}

// TestCompressRefusesRetiredModes runs bfsrun (this test binary re-executed
// as main) with each retired forced codec spelling: it must exit 1, before it
// reads the graph (a missing file, which would fail with another message),
// with a message naming the two modes there are.
func TestCompressRefusesRetiredModes(t *testing.T) {
	if args := os.Getenv("BFSRUN_ARGS"); args != "" {
		os.Args = append([]string{"bfsrun"}, strings.Fields(args)...)
		main()
		return
	}
	for _, mode := range []string{"raw", "delta", "bitmap"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCompressRefusesRetiredModes$")
		missing := filepath.Join(t.TempDir(), "missing.gcbf")
		cmd.Env = append(os.Environ(), "BFSRUN_ARGS=-graph "+missing+" -compress "+mode)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-compress %s: err %v, want exit status 1 (output %q)", mode, err, out)
		}
		if msg := string(out); !strings.Contains(msg, mode) || !strings.Contains(msg, "off") || !strings.Contains(msg, "adaptive") {
			t.Fatalf("-compress %s: message %q does not name the mode and both of off and adaptive", mode, msg)
		}
	}
}
