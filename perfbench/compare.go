package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// run is one saved benchmark run: its context line and its result line.
type run struct {
	ctx runContext
	res result
}

// readRuns reads the runs saved in a file of concatenated outputs.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	var ctx *runContext
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Context *runContext            `json:"context"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Context != nil:
			ctx = line.Context
		case line.Metrics != nil && ctx != nil:
			var res result
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, run{ctx: *ctx, res: res})
			ctx = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark runs", path)
	}
	return runs, nil
}

// compareMain prints, per metric, the median of the OLD runs and of the NEW
// runs. It refuses runs that differ in workload, trace mode, CPU count or
// GOMAXPROCS: their numbers are not comparable.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	var sides [2][]run
	for i, path := range args {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		sides[i] = runs
	}
	base := sides[0][0].ctx
	for _, side := range sides {
		for _, r := range side {
			c := r.ctx
			if c.Workload != base.Workload || c.Trace != base.Trace || c.CPUs != base.CPUs || c.GOMAXPROCS != base.GOMAXPROCS {
				fmt.Fprintf(stderr, "perfbench: refusing to compare %s (trace %t, cpus %d, gomaxprocs %d) with %s (trace %t, cpus %d, gomaxprocs %d)\n",
					base.Workload, base.Trace, base.CPUs, base.GOMAXPROCS, c.Workload, c.Trace, c.CPUs, c.GOMAXPROCS)
				return 2
			}
		}
	}
	names := map[string]string{}
	for _, side := range sides {
		for _, r := range side {
			for name, v := range r.res.Metrics {
				names[name] = v.Unit
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	fmt.Fprintf(stdout, "%s (trace %t), %d old and %d new runs, cpus %d, gomaxprocs %d\n",
		base.Workload, base.Trace, len(sides[0]), len(sides[1]), base.CPUs, base.GOMAXPROCS)
	for _, name := range sorted {
		var med [2]float64
		for i, side := range sides {
			var xs []float64
			for _, r := range side {
				if v, ok := r.res.Metrics[name]; ok {
					xs = append(xs, v.Value)
				}
			}
			med[i] = median(xs)
		}
		change := "n/a"
		if med[0] != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(med[1]-med[0])/med[0])
		}
		fmt.Fprintf(stdout, "  %-34s %14.4f %14.4f %8s %s\n", name, med[0], med[1], change, names[name])
	}
	return 0
}
