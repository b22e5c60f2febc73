//go:build !linux

package main

// peakRSSMiB is not measured off Linux.
func peakRSSMiB() float64 { return 0 }

// filesystemOf is not determined off Linux.
func filesystemOf(string) string { return "unknown" }
