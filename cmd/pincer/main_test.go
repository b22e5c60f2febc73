package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.basket")
	content := "1 2 3\n1 2 3\n1 2\n3 4\n3 4\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs run() with stdout redirected to a pipe-backed temp file.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunPincerText(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, []string{"-input", db, "-support", "0.4"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{1,2,3} support=2") {
		t.Errorf("missing {1,2,3}: %q", out)
	}
	if !strings.Contains(out, "{3,4} support=2") {
		t.Errorf("missing {3,4}: %q", out)
	}
}

func TestRunAllAlgorithmsAgree(t *testing.T) {
	db := writeTestDB(t)
	var outputs []string
	for _, alg := range []string{"pincer", "apriori", "ais", "eclat", "maxeclat", "topdown"} {
		out, err := capture(t, []string{"-input", db, "-support", "0.4", "-algorithm", alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// strip the header (it differs in algorithm-specific ways)
		lines := strings.SplitN(out, "\n", 2)
		outputs = append(outputs, lines[1])
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Errorf("algorithms disagree:\n%v", outputs)
	}
}

func TestRunJSON(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, []string{"-input", db, "-support", "0.4", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"algorithm": "pincer"`, `"maximal_frequent_itemsets"`, `"support": 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("json missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	db := writeTestDB(t)
	cases := [][]string{
		{},                                    // missing -input
		{"-input", db, "-support", "0"},       // bad support
		{"-input", db, "-support", "2"},       // bad support
		{"-input", db, "-algorithm", "magic"}, // bad algorithm
		{"-input", db, "-engine", "abacus"},   // bad engine
		{"-input", filepath.Join(t.TempDir(), "missing")}, // missing file
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

func TestRunWorkersFlag(t *testing.T) {
	db := writeTestDB(t)
	want, err := capture(t, []string{"-input", db, "-support", "0.4"})
	if err != nil {
		t.Fatal(err)
	}
	// parallel runs must print byte-identical output, for any worker count,
	// for both parallel algorithms, including 0 (= GOMAXPROCS)
	for _, args := range [][]string{
		{"-input", db, "-support", "0.4", "-workers", "1"},
		{"-input", db, "-support", "0.4", "-workers", "4"},
		{"-input", db, "-support", "0.4", "-workers", "0"},
		{"-input", db, "-support", "0.4", "-workers", "4", "-algorithm", "apriori"},
	} {
		out, err := capture(t, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if out != want {
			t.Errorf("%v: output differs from sequential:\ngot  %q\nwant %q", args, out, want)
		}
	}
}

func TestRunWorkersFlagRejectsOtherAlgorithms(t *testing.T) {
	db := writeTestDB(t)
	for _, alg := range []string{"eclat", "maxeclat", "topdown", "ais"} {
		if _, err := capture(t, []string{"-input", db, "-workers", "2", "-algorithm", alg}); err == nil {
			t.Errorf("-workers with -algorithm %s accepted, want error", alg)
		}
	}
}

func TestRunCompactsSparseUniverse(t *testing.T) {
	// Sparse SKU-style ids: the CLI must compact internally and translate
	// the maximal itemsets back to the original ids.
	path := filepath.Join(t.TempDir(), "sparse.basket")
	content := "100001 900002\n100001 900002\n100001\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, []string{"-input", path, "-support", "0.6", "-frequent"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{100001,900002} support=2") {
		t.Errorf("original ids lost: %q", out)
	}
	if !strings.Contains(out, "{100001} support=3") {
		t.Errorf("frequent set not translated: %q", out)
	}
}

// writeDenseDB returns a database whose every transaction is {1..6}: all 15
// pairs are frequent, so apriori's pass 3 joins 20 triple candidates — enough
// to trip a tiny -max-candidates budget deterministically.
func writeDenseDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dense.basket")
	content := strings.Repeat("1 2 3 4 5 6\n", 5)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlagValidation(t *testing.T) {
	db := writeTestDB(t)
	cases := [][]string{
		{"-input", db, "-resume"},                                       // -resume without -checkpoint
		{"-input", db, "-checkpoint", "x", "-algorithm", "eclat"},       // checkpoint needs pincer/apriori
		{"-input", db, "-timeout", "1s", "-algorithm", "eclat"},         // eclat is not cancellable
		{"-input", db, "-max-candidates", "5", "-algorithm", "topdown"}, // topdown has no candidate budget
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

func TestRunTimeoutPrintsPartial(t *testing.T) {
	db := writeTestDB(t)
	// A 1ns deadline is already expired at the first cancellation point: the
	// run must still succeed and print an (empty) partial anytime result.
	out, err := capture(t, []string{"-input", db, "-support", "0.4", "-timeout", "1ns"})
	if err != nil {
		t.Fatalf("timed-out run should exit cleanly, got %v", err)
	}
	if !strings.Contains(out, "# PARTIAL result (deadline") {
		t.Errorf("missing partial header: %q", out)
	}
}

func TestRunTimeoutJSONPartial(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, []string{"-input", db, "-support", "0.4", "-timeout", "1ns", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"partial_reason": "deadline"`) {
		t.Errorf("json missing partial reason: %q", out)
	}
}

// aprioriRuns are the apriori miner's two counting modes: sequential scans
// and count distribution over two workers.
var aprioriRuns = [][]string{
	{"-algorithm", "apriori"},
	{"-algorithm", "apriori", "-workers", "2"},
}

func TestRunMaxCandidatesPartial(t *testing.T) {
	db := writeDenseDB(t)
	for _, algo := range aprioriRuns {
		out, err := capture(t, append([]string{"-input", db, "-support", "0.6", "-max-candidates", "1"}, algo...))
		if err != nil {
			t.Fatalf("%v: budgeted run should exit cleanly, got %v", algo, err)
		}
		if !strings.Contains(out, "# PARTIAL result (max-candidates") {
			t.Errorf("%v: missing partial header: %q", algo, out)
		}
		// Passes 1–2 completed, so the pairs are already known frequent.
		if !strings.Contains(out, "{1,2} support=5") {
			t.Errorf("%v: partial result missing the frequent pairs: %q", algo, out)
		}
	}
}

func TestRunCheckpointResume(t *testing.T) {
	db := writeDenseDB(t)
	for _, algo := range aprioriRuns {
		ckpt := filepath.Join(t.TempDir(), "mine.ckpt")
		want, err := capture(t, append([]string{"-input", db, "-support", "0.6"}, algo...))
		if err != nil {
			t.Fatal(err)
		}

		// Abort at pass 3 with a checkpoint on disk...
		out, err := capture(t, append([]string{"-input", db, "-support", "0.6",
			"-checkpoint", ckpt, "-max-candidates", "1"}, algo...))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "PARTIAL") {
			t.Fatalf("%v: first run did not abort: %q", algo, out)
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("%v: no checkpoint written: %v", algo, err)
		}

		// ...then resume without the budget and match the uninterrupted output.
		out, err = capture(t, append([]string{"-input", db, "-support", "0.6",
			"-checkpoint", ckpt, "-resume"}, algo...))
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Errorf("%v: resumed output differs:\ngot  %q\nwant %q", algo, out, want)
		}
		// A completed run clears its checkpoint.
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Errorf("%v: checkpoint not cleared after completion: %v", algo, err)
		}
	}
}

func TestRunResumeWithEmptyCheckpointRunsFresh(t *testing.T) {
	db := writeTestDB(t)
	want, err := capture(t, []string{"-input", db, "-support", "0.4"})
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-checkpoint", filepath.Join(t.TempDir(), "a.ckpt"), "-resume"},
		{"-checkpoint", filepath.Join(t.TempDir(), "b.ckpt"), "-resume", "-workers", "2"},
	} {
		args := append([]string{"-input", db, "-support", "0.4"}, extra...)
		out, err := capture(t, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if out != want {
			t.Errorf("%v: output differs from plain run:\ngot  %q\nwant %q", args, out, want)
		}
	}
}

func TestRunFrequentFlag(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, []string{"-input", db, "-support", "0.4", "-frequent"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "frequent itemsets explicitly discovered") {
		t.Errorf("missing frequent section: %q", out)
	}
	if !strings.Contains(out, "{1} support=3") {
		t.Errorf("missing singleton support: %q", out)
	}
}
