package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names the three span levels of a traced transaction: the call
// into Atomically (the root), one child per body attempt, and one child for
// the commit — from the committed attempt's return to Atomically's return.
type spanKind uint8

const (
	spanTx spanKind = iota
	spanAttempt
	spanCommit
)

var spanNames = [...]string{spanTx: "tx", spanAttempt: "attempt", spanCommit: "commit"}

// span is one timed interval on the run's monotonic clock (ns since the
// phase began). Spans of one transaction share its id; the root is the
// parent of the others.
type span struct {
	tx         uint64
	start, end int64
	kind       spanKind
}

// traceAgg sums what the spans of one client's traced phase show.
type traceAgg struct {
	txs, attempts uint64
	// bodyNs covers every attempt span; retryNs only the aborted ones.
	bodyNs, retryNs, commitNs int64
	// selfNs is the root span's self time: its duration minus its
	// children's, i.e. time inside Atomically outside the body after a
	// failed commit, in rollback and in back-off, and on entry.
	selfNs int64
}

func (a *traceAgg) add(b traceAgg) {
	a.txs += b.txs
	a.attempts += b.attempts
	a.bodyNs += b.bodyNs
	a.retryNs += b.retryNs
	a.commitNs += b.commitNs
	a.selfNs += b.selfNs
}

// finishTx closes the current transaction, whose attempt spans are already
// in the chunk: a commit span from the last attempt's end if it committed,
// and the root span, both ending now.
func (c *client) finishTx(start int64, committed bool) {
	end := c.now()
	if n := len(c.buf.spans); committed && n > 0 {
		c.buf.spans = append(c.buf.spans, span{tx: c.txID, kind: spanCommit, start: c.buf.spans[n-1].end, end: end})
	}
	c.buf.spans = append(c.buf.spans, span{tx: c.txID, kind: spanTx, start: start, end: end})
	c.txID++
	if len(c.buf.spans) > chunkSpans/2 {
		c.fold()
	}
}

// fold derives the aggregates from the chunk's spans, keeps the sampled
// transactions for the span file, and empties the chunk.
func (c *client) fold() {
	var body, last, commit int64
	var attempts uint64
	first, committed := 0, false
	for i, s := range c.buf.spans {
		d := s.end - s.start
		switch s.kind {
		case spanAttempt:
			body += d
			last = d
			attempts++
		case spanCommit:
			commit = d
			committed = true
		case spanTx:
			c.trace.attempts += attempts
			c.trace.bodyNs += body
			if committed {
				c.trace.txs++
				c.trace.retryNs += body - last
				c.trace.commitNs += commit
				c.trace.selfNs += d - body - commit
				if len(c.buf.commit) < cap(c.buf.commit) {
					c.buf.commit = append(c.buf.commit, clampNs(time.Duration(commit)))
				}
			}
			if s.tx%keepEvery == 0 && len(c.buf.keep)+i+1-first <= cap(c.buf.keep) {
				c.buf.keep = append(c.buf.keep, c.buf.spans[first:i+1]...)
			}
			body, last, commit, attempts = 0, 0, 0, 0
			first, committed = i+1, false
		}
	}
	c.buf.spans = c.buf.spans[:0]
}

// spanRecord is the written form of one span.
type spanRecord struct {
	Tx      uint64 `json:"tx"`
	Kind    string `json:"kind"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanWindow is the sampled spans of one client's traced phase.
type spanWindow struct {
	Engine string       `json:"engine"`
	Round  int          `json:"round"`
	Client int          `json:"client"`
	Spans  []spanRecord `json:"spans"`
}

func keptSpans(engine string, round int, c *client) spanWindow {
	w := spanWindow{Engine: engine, Round: round, Client: c.id}
	for _, s := range c.buf.keep {
		w.Spans = append(w.Spans, spanRecord{Tx: s.tx, Kind: spanNames[s.kind], StartNs: s.start, EndNs: s.end})
	}
	return w
}

// writeSpans writes the kept spans, with the host fingerprint, as one JSON
// document.
func writeSpans(path string, fp fingerprint, windows []spanWindow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	data, err := json.Marshal(struct {
		Fingerprint fingerprint  `json:"fingerprint"`
		Windows     []spanWindow `json:"windows"`
	}{fp, windows})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
