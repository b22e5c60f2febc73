package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/incremental"
	"pincer/internal/itemset"
	"pincer/internal/server"
	"pincer/internal/vertical"
)

// answer is a maximal-set answer in canonical form: itemset key → support.
type answer map[string]int64

func itemsKey(items []int32) string {
	var b []byte
	for _, it := range items {
		b = fmt.Appendf(b, "%d ", it)
	}
	return string(b)
}

func setKey(s itemset.Itemset) string {
	items := make([]int32, len(s))
	for i, it := range s {
		items[i] = int32(it)
	}
	return itemsKey(items)
}

func answerOf(sets []itemset.Itemset, supports []int64) answer {
	a := answer{}
	for i, s := range sets {
		a[setKey(s)] = supports[i]
	}
	return a
}

func docAnswer(docs []server.ItemsetDoc) answer {
	a := answer{}
	for _, d := range docs {
		a[itemsKey(d.Items)] = d.Support
	}
	return a
}

// diff describes the first difference between two answers ("" if equal).
func (a answer) diff(want answer) string {
	if len(a) != len(want) {
		return fmt.Sprintf("%d sets, want %d", len(a), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := a[k]
		switch {
		case !ok:
			return fmt.Sprintf("missing {%s}", k)
		case got != want[k]:
			return fmt.Sprintf("{%s} has support %d, want %d", k, got, want[k])
		}
	}
	return ""
}

// jobReference mines one request's answer with a miner other than the
// served one: maximal Eclat on concentrated data, FP-max on scattered data
// (whichever is faster on that shape).
func jobReference(wl workload, db *database, minCount int64) answer {
	d := db.data
	if wl.name == "jobs-dense" {
		r := vertical.MineMaximal(d, float64(minCount)/float64(d.Len()), vertical.Options{})
		return answerOf(r.MFS, r.MFSSupports)
	}
	r := fpmax.MineMaximalCount(d, minCount, fpmax.DefaultOptions())
	return answerOf(r.MFS, r.MFSSupports)
}

// checkJobs compares every answered job with its reference, computed on
// clients goroutines after the window, and marks each mismatching op failed.
func checkJobs(s *system, ops [][]op) {
	type pair struct {
		db int
		mc int64
	}
	refs := map[pair]answer{}
	var todo []pair
	for _, cops := range ops {
		for _, o := range cops {
			p := pair{o.job.DB, o.job.MinCount}
			if _, ok := refs[p]; !ok && o.err == nil {
				refs[p] = nil
				todo = append(todo, p)
			}
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan pair)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				a := jobReference(s.cfg.wl, s.dbs[p.db], p.mc)
				mu.Lock()
				refs[p] = a
				mu.Unlock()
			}
		}()
	}
	for _, p := range todo {
		work <- p
	}
	close(work)
	wg.Wait()

	for c := range ops {
		for i := range ops[c] {
			o := &ops[c][i]
			if o.err != nil {
				continue
			}
			want := refs[pair{o.job.DB, o.job.MinCount}]
			// A repeat that misses the result cache is no failure: its
			// answer is still checked, and server.cache_hit_ratio shows it.
			switch {
			case o.doc.MinCount != o.job.MinCount:
				o.err = fmt.Errorf("job %s: min_count %d, want %d", o.doc.ID, o.doc.MinCount, o.job.MinCount)
			case o.doc.Transactions != s.dbs[o.job.DB].data.Len():
				o.err = fmt.Errorf("job %s: %d transactions, want %d", o.doc.ID, o.doc.Transactions, s.dbs[o.job.DB].data.Len())
			default:
				if d := docAnswer(o.doc.MFS).diff(want); d != "" {
					o.err = fmt.Errorf("job %s (db %d, min-count %d): MFS differs from the reference: %s", o.doc.ID, o.job.DB, o.job.MinCount, d)
				}
			}
		}
	}
}

// mirror is a client's view of its stream: every acknowledged batch, and
// from them the window the daemon must be maintaining.
type mirror struct {
	sz   sizing
	sent [][]dataset.Transaction
}

func (m mirror) window() (txs []dataset.Transaction, numItems int) {
	for _, b := range m.sent {
		for _, t := range b {
			if len(t) > 0 && int(t[len(t)-1])+1 > numItems {
				numItems = int(t[len(t)-1]) + 1
			}
			txs = append(txs, t)
		}
	}
	if w := m.sz.stream.Window; w > 0 && len(txs) > w {
		txs = txs[len(txs)-w:]
	}
	return txs, numItems
}

// checkBatches checks each acknowledged batch's delta document against the
// client's mirror, marking mismatching ops failed.
func checkBatches(sz sizing, ops [][]op) {
	for c := range ops {
		for i := range ops[c] {
			o := &ops[c][i]
			if o.err != nil {
				continue
			}
			seq := int64(o.index + 1)
			live := (o.index + 1) * sz.feed.NumTransactions
			if w := sz.stream.Window; w > 0 && live > w {
				live = w
			}
			d := o.delta
			switch {
			case d.Seq != seq || d.Duplicate:
				o.err = fmt.Errorf("client %d batch %d: acknowledged as seq %d (duplicate %t)", c, seq, d.Seq, d.Duplicate)
			case d.Appended != sz.feed.NumTransactions || d.Transactions != live:
				o.err = fmt.Errorf("client %d batch %d: appended %d, window %d; want %d, %d", c, seq, d.Appended, d.Transactions, sz.feed.NumTransactions, live)
			case d.MinCount != dataset.MinCountFor(live, sz.stream.MinSupport):
				o.err = fmt.Errorf("client %d batch %d: min_count %d, want %d", c, seq, d.MinCount, dataset.MinCountFor(live, sz.stream.MinSupport))
			}
		}
	}
}

// checkStream compares a stream's final answer with a from-scratch mine of
// the client's window mirror: FP-max for the maximal sets, and the negative
// border and every support computed independently of the program.
func checkStream(m mirror, doc *server.StreamMFSDoc) error {
	txs, numItems := m.window()
	d := dataset.Empty(numItems)
	for _, t := range txs {
		d.Append(t)
	}
	minCount := dataset.MinCountFor(len(txs), m.sz.stream.MinSupport)
	if doc.Seq != int64(len(m.sent)) || doc.Transactions != len(txs) || doc.MinCount != minCount {
		return fmt.Errorf("stream %s: seq %d, %d transactions, min_count %d; want %d, %d, %d",
			doc.ID, doc.Seq, doc.Transactions, doc.MinCount, len(m.sent), len(txs), minCount)
	}
	ref := fpmax.MineMaximalCount(d, minCount, fpmax.DefaultOptions())
	if diff := docAnswer(doc.MFS).diff(answerOf(ref.MFS, ref.MFSSupports)); diff != "" {
		return fmt.Errorf("stream %s: MFS differs from a from-scratch mine: %s", doc.ID, diff)
	}
	border := negativeBorder(numItems, ref.MFS)
	count := newSupportCounter(d)
	supports := make([]int64, len(border))
	for i, b := range border {
		supports[i] = count.support(b)
	}
	if diff := docAnswer(doc.Border).diff(answerOf(border, supports)); diff != "" {
		return fmt.Errorf("stream %s: negative border differs from a from-scratch mine: %s", doc.ID, diff)
	}
	return nil
}

// streamAnswer is the part of a stream's answer two equivalent
// configurations must agree on byte for byte.
type streamAnswer struct {
	Seq          int64               `json:"seq"`
	Transactions int                 `json:"transactions"`
	MinCount     int64               `json:"min_count"`
	MFS          []server.ItemsetDoc `json:"mfs"`
	Border       []server.ItemsetDoc `json:"border"`
}

func answerJSON(a streamAnswer) []byte {
	b, _ := json.Marshal(a) // plain structs of ints: cannot fail
	return b
}

func docStreamAnswer(doc *server.StreamMFSDoc) []byte {
	return answerJSON(streamAnswer{doc.Seq, doc.Transactions, doc.MinCount, doc.MFS, doc.Border})
}

func maintainerAnswer(mt *incremental.Maintainer) []byte {
	a := streamAnswer{Seq: mt.Seq(), Transactions: mt.Len(), MinCount: mt.MinCount()}
	for i, s := range mt.MFS() {
		a.MFS = append(a.MFS, itemDoc(s, mt.MFSSupports()[i]))
	}
	for i, s := range mt.Border() {
		a.Border = append(a.Border, itemDoc(s, mt.BorderSupports()[i]))
	}
	return answerJSON(a)
}

func itemDoc(s itemset.Itemset, support int64) server.ItemsetDoc {
	items := make([]int32, len(s))
	for i, it := range s {
		items[i] = int32(it)
	}
	return server.ItemsetDoc{Items: items, Support: support}
}

// checkLocalEquivalent feeds the client's batches to a single-node
// maintainer configured as stream-window configures it, and requires the
// served (clustered) answer to be byte-identical to it: the two stream
// workloads share their feeds, so they must end identically.
func checkLocalEquivalent(m mirror, doc *server.StreamMFSDoc) error {
	spec := m.sz.stream
	mt, err := incremental.New(incremental.Options{MinSupport: spec.MinSupport, Window: spec.Window, Counter: spec.Counter, Workers: spec.Workers})
	if err != nil {
		return err
	}
	for _, b := range m.sent {
		if _, err := mt.Append(b); err != nil {
			return err
		}
	}
	if got, want := docStreamAnswer(doc), maintainerAnswer(mt); !bytes.Equal(got, want) {
		return fmt.Errorf("stream %s: clustered answer is not byte-identical to the single-node one", doc.ID)
	}
	return nil
}

// negativeBorder returns the minimal itemsets over items [0, numItems) that
// lie outside the down-closure of mfs, in canonical order.
func negativeBorder(numItems int, mfs []itemset.Itemset) []itemset.Itemset {
	closure := map[string]bool{}
	var frequent []itemset.Itemset
	for _, m := range mfs {
		for mask := 1; mask < 1<<len(m); mask++ {
			var sub itemset.Itemset
			for i, it := range m {
				if mask&(1<<i) != 0 {
					sub = append(sub, it)
				}
			}
			if k := setKey(sub); !closure[k] {
				closure[k] = true
				frequent = append(frequent, sub)
			}
		}
	}
	var border []itemset.Itemset
	var items []itemset.Item
	for i := 0; i < numItems; i++ {
		if closure[setKey(itemset.Itemset{itemset.Item(i)})] {
			items = append(items, itemset.Item(i))
		} else {
			border = append(border, itemset.Itemset{itemset.Item(i)})
		}
	}
	// A border set of two or more items consists of frequent items; build
	// each from its prefix (itself frequent) plus a larger last item.
	for _, f := range frequent {
		for _, it := range items {
			if it <= f[len(f)-1] {
				continue
			}
			c := append(append(itemset.Itemset(nil), f...), it)
			if closure[setKey(c)] {
				continue
			}
			minimal := true
			for drop := range c {
				sub := append(append(itemset.Itemset(nil), c[:drop]...), c[drop+1:]...)
				if !closure[setKey(sub)] {
					minimal = false
					break
				}
			}
			if minimal {
				border = append(border, c)
			}
		}
	}
	sort.Slice(border, func(i, j int) bool { return setKey(border[i]) < setKey(border[j]) })
	return border
}

// supportCounter counts supports by intersecting per-item transaction
// bitmaps — a counting path independent of the program's counters.
type supportCounter struct {
	tids  [][]uint64
	words int
}

func newSupportCounter(d *dataset.Dataset) *supportCounter {
	c := &supportCounter{tids: make([][]uint64, d.NumItems()), words: (d.Len() + 63) / 64}
	for t, tx := range d.Transactions() {
		for _, it := range tx {
			if c.tids[it] == nil {
				c.tids[it] = make([]uint64, c.words)
			}
			c.tids[it][t/64] |= 1 << (t % 64)
		}
	}
	return c
}

func (c *supportCounter) support(s itemset.Itemset) int64 {
	var n int64
	for w := 0; w < c.words; w++ {
		v := ^uint64(0)
		for _, it := range s {
			if c.tids[it] == nil {
				return 0
			}
			v &= c.tids[it][w]
		}
		n += int64(bits.OnesCount64(v))
	}
	return n
}
