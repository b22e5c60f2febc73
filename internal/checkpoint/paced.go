package checkpoint

import "time"

// DurableInterval is how old a PacedCheckpointer's last durable write, or
// its run's start, must be before it writes another barrier to disk.
//
// Young's first-order optimum checkpoint interval ("A first order
// approximation to the optimum checkpoint interval", CACM 1974) is
// T = √(2·C·M), for a save that costs C and a mean time between failures
// M. A durable save of a stream re-mine (temp file, gob, fsync, rename)
// costs C ≈ 1.1 ms on a 2-vCPU ext4 box, so T = 1 s is the optimum for a
// daemon that dies about every 7.5 minutes (M = T²/2C). A sturdier daemon
// would be served by a longer interval: one second checkpoints more often
// than it needs, and a process death costs at most about a second of
// re-mining.
const DurableInterval = time.Second

// PacedCheckpointer is a Checkpointer for runs that reach pass barriers
// faster than a durable write pays for, such as a stream's re-mines. Save
// encodes every barrier at once, because the state it is given aliases the
// live miner, but writes it to the file only when the last durable write,
// or the run's start at Load, is at least DurableInterval old. Otherwise
// it holds the encoding until the next due Save or a Flush. The caller of
// a run that ends early calls Flush, so the run's last barrier reaches
// disk; a process death loses at most one interval plus one pass.
//
// A PacedCheckpointer is not safe for concurrent use.
type PacedCheckpointer struct {
	file *FileCheckpointer
	now  func() time.Time // the clock; tests substitute it
	last time.Time        // the last durable write, or the run's start
	held []byte           // the newest barrier not yet written, encoded
}

// NewPacedCheckpointer builds a paced checkpointer backed by path.
func NewPacedCheckpointer(path string) *PacedCheckpointer {
	return newPaced(path, time.Now)
}

func newPaced(path string, now func() time.Time) *PacedCheckpointer {
	return &PacedCheckpointer{file: NewFileCheckpointer(path), now: now, last: now()}
}

// Save encodes the state, and writes it if the interval has run out.
func (p *PacedCheckpointer) Save(st *State) error {
	_, err := p.offer(st)
	return err
}

func (p *PacedCheckpointer) offer(st *State) (bool, error) {
	raw, err := encode(st)
	if err != nil {
		return false, err
	}
	p.held = raw
	if p.now().Sub(p.last) < DurableInterval {
		return false, nil
	}
	if err := p.Flush(); err != nil {
		return false, err
	}
	return true, nil
}

// Flush writes the held barrier, if there is one, to the file.
func (p *PacedCheckpointer) Flush() error {
	if p.held == nil {
		return nil
	}
	if err := p.file.write(p.held); err != nil {
		return err
	}
	p.held, p.last = nil, p.now()
	return nil
}

// Load starts a run's interval and reads the file: a held barrier reaches
// it only through a due Save or a Flush.
func (p *PacedCheckpointer) Load() (*State, error) {
	p.last = p.now()
	return p.file.Load()
}

// Clear drops the held barrier and removes the file.
func (p *PacedCheckpointer) Clear() error {
	p.held = nil
	return p.file.Clear()
}

// Offer hands one pass barrier's state to cp and reports whether it was
// written durably: a PacedCheckpointer may hold it in memory instead, and
// every other Checkpointer's Save counts as a write.
func Offer(cp Checkpointer, st *State) (written bool, err error) {
	if o, ok := cp.(offerer); ok {
		return o.offer(st)
	}
	if err := cp.Save(st); err != nil {
		return false, err
	}
	return true, nil
}

// offerer is a Checkpointer that can tell a written barrier from a held one.
type offerer interface {
	offer(st *State) (written bool, err error)
}
