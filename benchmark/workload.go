package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/ssrg-vt/rinval/container/rbtree"
	"github.com/ssrg-vt/rinval/stm"
)

// Workload sizes. The tree matches the paper's Figure 7 micro-benchmark
// (64K key range, half full); the bank is small enough that its hot set
// gives a steady write-write conflict rate with two clients.
const (
	treeKeys    = 65536
	treePrefill = 32768
	// prefillBatch inserts go into one pre-fill transaction, so set-up
	// time is mostly building the tree rather than single-client commit
	// round trips, and a run can afford more rounds.
	prefillBatch = 64
	accounts     = 1024
	hotAccounts  = 32
	hotPct       = 90
	startBalance = 1000
)

type opKind uint8

const (
	opContains opKind = iota
	opInsert
	opDelete
	opTransfer
)

// op is one generated operation: a tree key in a, or the two account
// indices of a transfer in a and b.
type op struct {
	kind opKind
	a, b int
}

// workload is one benchmark input: an operation mix over one data set.
type workload struct {
	name string
	// lookupPct is the share of tree operations that are lookups; the rest
	// split evenly between Insert and Delete. Zero for the bank.
	lookupPct int
	// roLookups issues lookups through AtomicallyRO instead of Atomically.
	roLookups bool
	bank      bool
	// transfer is the bank's transaction body. It is a field so a test can
	// plant a faulty body and watch the end-of-run check catch it.
	transfer func(tx *stm.Tx, from, to *stm.Var[int])
}

// workloads are the benchmark's inputs; README.md gives the reason for each.
var workloads = []*workload{
	{
		name:      "rbtree-50",
		lookupPct: 50,
	},
	{
		name:      "rbtree-90",
		lookupPct: 90,
		roLookups: true,
	},
	{
		name:     "transfer",
		bank:     true,
		transfer: moveOne,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// moveOne is the bank transaction: move one unit between two accounts.
func moveOne(tx *stm.Tx, from, to *stm.Var[int]) {
	from.Store(tx, from.Load(tx)-1)
	to.Store(tx, to.Load(tx)+1)
}

// Stream ids separate the independent random streams derived from one seed.
const (
	streamPrefill = 1 << 32
	streamClient  = 2 << 32
	streamConfig  = 3 << 32
	streamLayer   = 4 << 32
)

// newRand returns the deterministic generator for one (seed, round, stream).
// Every engine of a round draws the same streams, so engines are compared on
// identical inputs.
func newRand(seed uint64, round int, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream|uint64(round)))
}

// opStream generates one client's operations.
type opStream struct {
	w *workload
	r *rand.Rand
}

func (s *opStream) next() op {
	if s.w.bank {
		var from int
		if s.r.IntN(100) < hotPct {
			from = s.r.IntN(hotAccounts)
		} else {
			from = s.r.IntN(accounts)
		}
		to := s.r.IntN(accounts - 1)
		if to >= from {
			to++ // uniform over the other accounts
		}
		return op{kind: opTransfer, a: from, b: to}
	}
	key := s.r.IntN(treeKeys)
	p := s.r.IntN(100)
	switch {
	case p < s.w.lookupPct:
		return op{kind: opContains, a: key}
	case p < s.w.lookupPct+(100-s.w.lookupPct)/2:
		return op{kind: opInsert, a: key}
	default:
		return op{kind: opDelete, a: key}
	}
}

// dataset is one engine-round's shared data: the tree or the accounts, plus
// what the end-of-run check needs.
type dataset struct {
	w        *workload
	tree     *rbtree.Tree
	prefill  int // keys the pre-fill actually inserted
	accounts []*stm.Var[int]
}

// newDataset builds the workload's data and pre-fills it through th.
func newDataset(w *workload, th *stm.Thread, seed uint64, round int) (*dataset, error) {
	d := &dataset{w: w}
	if w.bank {
		d.accounts = make([]*stm.Var[int], accounts)
		for i := range d.accounts {
			d.accounts[i] = stm.NewVar(startBalance)
		}
		return d, nil
	}
	d.tree = rbtree.New()
	r := newRand(seed, round, streamPrefill)
	keys := make([]int, prefillBatch)
	for range treePrefill / prefillBatch {
		for i := range keys {
			keys[i] = r.IntN(treeKeys)
		}
		var added int
		if err := th.Atomically(func(tx *stm.Tx) error {
			added = 0
			for _, k := range keys {
				if d.tree.Insert(tx, k, k) {
					added++
				}
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("pre-fill: %w", err)
		}
		d.prefill += added
	}
	return d, nil
}

// check verifies the data set after every client has stopped. net is the
// committed successful inserts minus committed successful deletes.
func (d *dataset) check(net int) error {
	if d.w.bank {
		sum := 0
		for _, a := range d.accounts {
			sum += a.Peek()
		}
		if want := accounts * startBalance; sum != want {
			return fmt.Errorf("balance sum %d, want %d", sum, want)
		}
		return nil
	}
	if err := d.tree.CheckInvariants(); err != nil {
		return fmt.Errorf("tree invariants: %w", err)
	}
	size, keys := d.tree.SizeQuiescent(), len(d.tree.Keys())
	if want := d.prefill + net; size != want || keys != want {
		return fmt.Errorf("tree size %d, %d keys, want %d (pre-fill %d, net inserts %d)",
			size, keys, want, d.prefill, net)
	}
	return nil
}
