package dataset

import (
	"sync"
	"sync/atomic"

	"pincer/internal/itemset"
)

// Scanner abstracts "reading the database once". Mining algorithms receive a
// Scanner rather than a *Dataset so that every pass over the data is
// observable: the paper reports the number of passes as a headline metric,
// and the I/O cost model of §2.2 charges one database read per pass.
//
// Scan invokes fn once per transaction, in a fixed order, passing both the
// sparse and the dense representation of the transaction. Implementations
// must present an identical sequence on every call.
type Scanner interface {
	// Scan performs one full pass over the database.
	Scan(fn func(tx itemset.Itemset, bits *itemset.Bitset))
	// Len returns the number of transactions.
	Len() int
	// NumItems returns the item universe size.
	NumItems() int
	// Passes returns the number of completed Scan calls so far.
	Passes() int
}

// MemoryScanner is the standard Scanner over an in-memory Dataset. The dense
// bitset form of each transaction is materialized once, by the first Scan,
// and shared across passes, which may run concurrently (a cluster worker
// serves every count over one shard from one scanner). A scanner that is
// never scanned — the miner counts through a tid-list or partitioned
// counter instead — never builds them.
type MemoryScanner struct {
	data     *Dataset
	bitsOnce sync.Once
	bits     []*itemset.Bitset
	passes   atomic.Int64
}

// NewScanner wraps a dataset. The dataset must not be mutated while the
// scanner is in use.
func NewScanner(d *Dataset) *MemoryScanner {
	return &MemoryScanner{data: d}
}

// Scan implements Scanner.
func (m *MemoryScanner) Scan(fn func(tx itemset.Itemset, bits *itemset.Bitset)) {
	m.passes.Add(1)
	m.bitsOnce.Do(func() { m.bits = m.data.Bitsets() })
	for i, t := range m.data.Transactions() {
		fn(t, m.bits[i])
	}
}

// Len implements Scanner.
func (m *MemoryScanner) Len() int { return m.data.Len() }

// NumItems implements Scanner.
func (m *MemoryScanner) NumItems() int { return m.data.NumItems() }

// Passes implements Scanner.
func (m *MemoryScanner) Passes() int { return int(m.passes.Load()) }

// Dataset returns the underlying dataset.
func (m *MemoryScanner) Dataset() *Dataset { return m.data }

// ResetPasses zeroes the pass counter (used between benchmark iterations).
func (m *MemoryScanner) ResetPasses() { m.passes.Store(0) }
