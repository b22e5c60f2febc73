package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchrunSingleSpec(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	err := run([]string{"-spec", "F4-T20I6", "-d", "400", "-q", "-csv", csv, "-budget", "0"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "F4-T20I6") {
		t.Errorf("csv missing spec id:\n%s", out)
	}
	// every non-header line ends with agree=true, skipped=false
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("csv too short:\n%s", out)
	}
	for _, l := range lines[1:] {
		if !strings.HasSuffix(l, "true,false") {
			t.Errorf("cell not agreeing or skipped: %q", l)
		}
	}
}

func TestBenchrunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-spec", "F9-NOPE"},
		{"-figure", "7"},
		{"-engine", "abacus"},
		{"-suite", "nope"},
		{"-suite", "parallel", "-spec", "F9-NOPE"},
		{"-suite", "parallel", "-figure", "4"},
		{"-spec", "F4-T20I6", "-figure", "3"},
		{"-repeats", "-3"},
		{"-workers", "1,2"}, // the sweep modes are suites now
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestBenchrunParallelSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "parallel.json")
	err := run([]string{"-suite", "parallel", "-spec", "F4-T20I6", "-d", "400",
		"-repeats", "1", "-q", "-json", jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Suite string `json:"suite"`
		CPUs  int    `json:"cpus"`
		Cells []struct {
			Dataset string `json:"dataset"`
			Key     string `json:"key"`
			Agree   bool   `json:"agree"`
		} `json:"cells"`
		Gates []struct {
			Name string `json:"name"`
			Pass bool   `json:"pass"`
		} `json:"gates"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not one JSON object: %v\n%s", err, data)
	}
	if rep.Suite != "parallel" || rep.CPUs < 1 || len(rep.Cells) != 3 || len(rep.Gates) != 1 || !rep.Gates[0].Pass {
		t.Fatalf("report: %s", data)
	}
	for _, c := range rep.Cells {
		if c.Dataset != "F4-T20I6" || !strings.HasPrefix(c.Key, "workers=") || !c.Agree {
			t.Errorf("cell %+v", c)
		}
	}
}

func TestBenchrunFlagValidation(t *testing.T) {
	if err := run([]string{"-resume"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := run([]string{"-suite", "engines", "-figure", "3"}); err == nil {
		t.Error("-figure outside the figures suite accepted")
	}
	if err := run([]string{"-d", "-5"}); err == nil {
		t.Error("negative -d accepted")
	}
}

// TestBenchrunTimeoutSkipsCells runs the figure harness with an expired
// deadline: every cell must be marked skipped, and the command must still
// exit cleanly with a complete CSV.
func TestBenchrunTimeoutSkipsCells(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	err := run([]string{"-spec", "F4-T20I6", "-d", "400", "-q", "-budget", "0",
		"-timeout", "1ns", "-csv", csv})
	if err != nil {
		t.Fatalf("timed-out run should exit cleanly, got %v", err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("csv too short:\n%s", string(data))
	}
	for _, l := range lines[1:] {
		if !strings.HasSuffix(l, "true") { // skipped column
			t.Errorf("cell not marked skipped: %q", l)
		}
	}
}

func TestBenchrunCheckpointSweepCompletes(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	err := run([]string{"-suite", "parallel", "-spec", "F4-T20I6", "-d", "400",
		"-repeats", "1", "-q", "-checkpoint", ckpt, "-resume"})
	if err != nil {
		t.Fatal(err)
	}
	// Completed runs clear their checkpoint.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not cleared after a completed sweep: %v", err)
	}
}

// A failure that no limit on the command line caused — here a checkpoint
// that cannot be written — fails the command and names the gate, even when
// it is the sequential reference that fails.
func TestBenchrunGateFailureExitsNonZero(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "missing", "run.ckpt")
	err := run([]string{"-suite", "parallel", "-spec", "F4-T20I6", "-d", "400",
		"-repeats", "1", "-q", "-checkpoint", ckpt})
	if err == nil || !strings.Contains(err.Error(), "gate agree failed") {
		t.Fatalf("run = %v, want the agree gate to fail", err)
	}
}
