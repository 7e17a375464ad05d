package main

import (
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

// phaseMode selects what a closed-loop phase records.
type phaseMode uint8

const (
	warmup   phaseMode = iota // records nothing
	measured                  // records per-transaction latency
	traced                    // records spans
)

// buffers are a client's sample stores, allocated once per process and
// reused by every window so that recording allocates nothing while the Go
// runtime's allocation counters are being read.
type buffers struct {
	lat   []uint32 // measured: ns from the call to Atomically until it returns
	spans []span   // traced: the current chunk, folded when half full
	keep  []span   // traced: the sampled transactions written out at the end
	// commit holds traced commit-span durations in ns.
	commit []uint32
}

const (
	sampleCap  = 1 << 21
	chunkSpans = 1 << 14
	keepSpans  = 1 << 12
	// keepEvery samples the transactions whose spans are written out.
	keepEvery = 64
)

func newBuffers() *buffers {
	return &buffers{
		lat:    make([]uint32, 0, sampleCap),
		spans:  make([]span, 0, chunkSpans),
		keep:   make([]span, 0, keepSpans),
		commit: make([]uint32, 0, sampleCap),
	}
}

// client is one closed-loop goroutine. Its transaction bodies are method
// values bound once, so the loop allocates nothing of its own.
type client struct {
	id   int
	th   *stm.Thread
	data *dataset
	ops  opStream
	buf  *buffers

	cur op
	ok  bool // result of the latest attempt's Insert or Delete

	body, tracedBody func(*stm.Tx) error

	// Counts for the current phase.
	attempted, committed, failed uint64
	// net is committed successful inserts minus deletes, over every phase.
	net int

	// Traced-phase state.
	base  time.Time
	txID  uint64
	trace traceAgg
}

func newClient(id int, th *stm.Thread, data *dataset, ops opStream, buf *buffers) *client {
	c := &client{id: id, th: th, data: data, ops: ops, buf: buf}
	c.body = c.runOp
	c.tracedBody = c.runTraced
	return c
}

// runOp is the transaction body for the current operation.
func (c *client) runOp(tx *stm.Tx) error {
	switch c.cur.kind {
	case opContains:
		c.ok = c.data.tree.Contains(tx, c.cur.a)
	case opInsert:
		c.ok = c.data.tree.Insert(tx, c.cur.a, c.cur.a)
	case opDelete:
		c.ok = c.data.tree.Delete(tx, c.cur.a)
	case opTransfer:
		c.data.w.transfer(tx, c.data.accounts[c.cur.a], c.data.accounts[c.cur.b])
	}
	return nil
}

// runTraced wraps runOp in an attempt span. The deferred close also ends
// the span of an attempt the engine aborts by unwinding the body.
func (c *client) runTraced(tx *stm.Tx) error {
	i := len(c.buf.spans)
	c.buf.spans = append(c.buf.spans, span{tx: c.txID, kind: spanAttempt, start: c.now()})
	defer c.endSpan(i)
	return c.runOp(tx)
}

func (c *client) endSpan(i int) { c.buf.spans[i].end = c.now() }

func (c *client) now() int64 { return int64(time.Since(c.base)) }

// resetPhase clears the per-phase counts and sample stores.
func (c *client) resetPhase() {
	c.attempted, c.committed, c.failed = 0, 0, 0
	c.buf.lat = c.buf.lat[:0]
	c.buf.spans = c.buf.spans[:0]
	c.buf.keep = c.buf.keep[:0]
	c.buf.commit = c.buf.commit[:0]
	c.trace = traceAgg{}
	c.txID = uint64(c.id) << 48
}

// loop issues operations until stop is set, each one only after the
// previous returned (closed loop).
func (c *client) loop(stop *atomic.Bool, mode phaseMode, base time.Time) {
	c.resetPhase()
	c.base = base
	fn := c.body
	if mode == traced {
		fn = c.tracedBody
	}
	for !stop.Load() {
		c.cur = c.ops.next()
		c.ok = false
		t0 := time.Now()
		var err error
		if c.cur.kind == opContains && c.data.w.roLookups {
			err = c.th.AtomicallyRO(fn)
		} else {
			err = c.th.Atomically(fn)
		}
		switch mode {
		case measured:
			c.buf.lat = append(c.buf.lat, clampNs(time.Since(t0)))
		case traced:
			c.finishTx(int64(t0.Sub(base)), err == nil)
		}
		c.attempted++
		if err != nil {
			c.failed++
			continue
		}
		c.committed++
		if c.ok {
			switch c.cur.kind {
			case opInsert:
				c.net++
			case opDelete:
				c.net--
			}
		}
	}
	if mode == traced {
		c.fold()
	}
}

func clampNs(d time.Duration) uint32 {
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}
