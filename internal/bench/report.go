package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteTable renders a report for a terminal: a header with the machine
// context, one row per cell, and the verdict of every gate.
func WriteTable(w io.Writer, r Report) error {
	fmt.Fprintf(w, "%s — %s\n", r.Suite, r.Title)
	fmt.Fprintf(w, "%s; |D|=%d; %d CPUs, GOMAXPROCS=%d, %s; min of %d repeats; ratio = %s\n",
		strings.Join(r.Datasets, ", "), r.Transactions, r.CPUs, r.GoMaxProcs, r.GoVersion, r.Repeats, r.Ratio)
	fmt.Fprintf(w, "%-12s %-7s %-16s | %-16s %9s | %-16s %9s | %8s | %7s | %15s | %5s %5s | %s\n",
		"dataset", "minsup", "key", "reference", "seconds", "variant", "seconds", "ratio",
		"passes", "candidates", "|MFS|", "agree", "detail")
	fmt.Fprintln(w, strings.Repeat("-", 152))
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-12s %-7s %-16s | ", c.Dataset, fmtSup(c.Support), c.Key)
		switch {
		case c.Err != "":
			fmt.Fprintf(w, "error: %s\n", c.Err)
			continue
		case c.Skip != "":
			fmt.Fprintf(w, "skipped: %s\n", c.Skip)
			continue
		}
		var detail []string
		for _, d := range []string{c.Reference.Detail, c.Variant.Detail, c.Inexact} {
			if d != "" {
				detail = append(detail, d)
			}
		}
		if c.Degraded {
			detail = append(detail, "DEGRADED")
		}
		fmt.Fprintf(w, "%-16s %9.4f | %-16s %9.4f | %7.2fx | %3d/%-3d | %7d/%-7d | %5d %5v | %s\n",
			c.Reference.Name, c.Reference.Seconds, c.Variant.Name, c.Variant.Seconds, c.Ratio,
			c.Reference.Passes, c.Variant.Passes, c.Reference.Candidates, c.Variant.Candidates,
			c.Variant.MFSSize, c.Agree, strings.Join(detail, "; "))
	}
	for _, g := range r.Gates {
		verdict := "pass"
		if !g.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "gate %s: %s — %s\n", g.Name, verdict, g.Detail)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteJSON writes a report as one indented JSON object.
func WriteJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes a report's cells as CSV, one header line first.
func WriteCSV(w io.Writer, r Report) error {
	if _, err := fmt.Fprintln(w, "suite,dataset,minsup,key,reference,reference_seconds,variant,variant_seconds,ratio,reference_passes,variant_passes,reference_candidates,variant_candidates,mfs_size,longest_mfs,agree,skipped"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s,%s,%g,%q,%s,%.6f,%s,%.6f,%.4f,%d,%d,%d,%d,%d,%d,%v,%v\n",
			r.Suite, c.Dataset, c.Support, c.Key,
			c.Reference.Name, c.Reference.Seconds, c.Variant.Name, c.Variant.Seconds, c.Ratio,
			c.Reference.Passes, c.Variant.Passes, c.Reference.Candidates, c.Variant.Candidates,
			c.Variant.MFSSize, c.Variant.LongestMFS, c.Agree, !c.measured()); err != nil {
			return err
		}
	}
	return nil
}
