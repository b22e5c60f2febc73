//go:build !race

package main

import "time"

// tinySeconds is the timed window of a tiny run.
const tinySeconds = 3 * time.Second
