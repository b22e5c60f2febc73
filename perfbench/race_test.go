//go:build race

package main

import "time"

// tinySeconds is the timed window of a tiny run. The race detector slows
// every operation several times, and the window still needs rssAfter of
// them for its p95.
const tinySeconds = 10 * time.Second
