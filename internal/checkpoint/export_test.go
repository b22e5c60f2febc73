package checkpoint

import "time"

// NewPacedCheckpointerClock builds a PacedCheckpointer on a substituted
// clock, for tests outside the package.
func NewPacedCheckpointerClock(path string, now func() time.Time) *PacedCheckpointer {
	return newPaced(path, now)
}
