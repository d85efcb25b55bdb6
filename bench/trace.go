package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/qm"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// Layer names used by the tracer: module names, plus "bench" for the load
// generator's own handler.
const (
	layerRI       = "ri"
	layerQM       = "qm"
	layerDeadlock = "deadlock"
	layerBench    = "bench"
)

// tracer owns the benchmark-side instrumentation: decorating actors and
// timing wrappers around the wal.Media, storage.Journal and qm.Durable
// boundaries. Nothing is recorded while on is false, so one cluster can
// alternate untraced and traced windows and the totals below belong to the
// traced windows alone.
type tracer struct {
	on atomic.Bool
	// keepSpans retains one span per actor call for -trace-out; without it
	// only the per-(layer, site, message type) aggregates are kept.
	keepSpans bool
	base      time.Time

	actors []*tracedActor

	journalNs  atomic.Int64
	journalOps atomic.Int64
	flushNs    atomic.Int64
	flushOps   atomic.Int64
	mediaBytes atomic.Int64

	syncMu sync.Mutex
	syncNs []int64 // one sample per traced media Sync
}

func newTracer(keepSpans bool) *tracer {
	return &tracer{keepSpans: keepSpans, base: time.Now(), syncNs: make([]int64, 0, 1<<17)}
}

// span is one traced OnMessage call.
type span struct {
	startNs int64
	durNs   int64
	kind    reflect.Type
}

// kindStat aggregates the calls of one message type at one actor.
type kindStat struct {
	calls  int64
	busyNs int64
	maxNs  int64
}

// tracedActor decorates an engine.Actor. Every instance is registered at one
// address, so exactly one mailbox goroutine touches its fields; they are read
// only after the runtime has shut down.
type tracedActor struct {
	tr    *tracer
	layer string
	site  int
	inner engine.Actor
	kinds map[reflect.Type]*kindStat
	spans []span
}

// wrap returns a (the actor itself) when t is nil, else a decorated actor.
func (t *tracer) wrap(layer string, site int, a engine.Actor) engine.Actor {
	if t == nil {
		return a
	}
	ta := &tracedActor{tr: t, layer: layer, site: site, inner: a, kinds: map[reflect.Type]*kindStat{}}
	t.actors = append(t.actors, ta)
	return ta
}

// OnMessage forwards the call unchanged. The message is never retained: a
// pooled pointer is recycled by the runtime as soon as this returns, so only
// its dynamic type is kept.
func (a *tracedActor) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if !a.tr.on.Load() {
		a.inner.OnMessage(ctx, from, msg)
		return
	}
	kind := reflect.TypeOf(msg)
	start := time.Now()
	a.inner.OnMessage(ctx, from, msg)
	d := time.Since(start).Nanoseconds()
	ks := a.kinds[kind]
	if ks == nil {
		ks = &kindStat{}
		a.kinds[kind] = ks
	}
	ks.calls++
	ks.busyNs += d
	if d > ks.maxNs {
		ks.maxNs = d
	}
	if a.tr.keepSpans {
		a.spans = append(a.spans, span{startNs: start.Sub(a.tr.base).Nanoseconds(), durNs: d, kind: kind})
	}
}

// layerTotals sums calls and busy time over every actor of a layer. Call
// only after the runtimes have shut down.
func (t *tracer) layerTotals(layer string) (calls, busyNs int64) {
	for _, a := range t.actors {
		if a.layer != layer {
			continue
		}
		for _, ks := range a.kinds {
			calls += ks.calls
			busyNs += ks.busyNs
		}
	}
	return calls, busyNs
}

// kindName renders a message type without package or pointer decoration, so
// the pooled pointer form and the value form of one message share a row.
func kindName(t reflect.Type) string {
	if t == nil {
		return "nil"
	}
	return strings.TrimPrefix(strings.TrimPrefix(t.String(), "*"), "model.")
}

// traceRow is one (layer, site, message type) aggregate of the summary.
type traceRow struct {
	Layer  string  `json:"layer"`
	Site   int     `json:"site"`
	Msg    string  `json:"msg"`
	Calls  int64   `json:"calls"`
	BusyUs float64 `json:"busy_us"`
	MaxUs  float64 `json:"max_us"`
}

// summary merges pointer and value forms and sorts by busy time.
func (t *tracer) summary() []traceRow {
	type key struct {
		layer string
		site  int
		msg   string
	}
	agg := map[key]*traceRow{}
	for _, a := range t.actors {
		for kind, ks := range a.kinds {
			k := key{a.layer, a.site, kindName(kind)}
			r := agg[k]
			if r == nil {
				r = &traceRow{Layer: k.layer, Site: k.site, Msg: k.msg}
				agg[k] = r
			}
			r.Calls += ks.calls
			r.BusyUs += float64(ks.busyNs) / 1e3
			if m := float64(ks.maxNs) / 1e3; m > r.MaxUs {
				r.MaxUs = m
			}
		}
	}
	rows := make([]traceRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].BusyUs != rows[j].BusyUs {
			return rows[i].BusyUs > rows[j].BusyUs
		}
		return fmt.Sprint(rows[i].Layer, rows[i].Site, rows[i].Msg) < fmt.Sprint(rows[j].Layer, rows[j].Site, rows[j].Msg)
	})
	return rows
}

// dump writes the summary and, when spans were kept, every span to path.
func (t *tracer) dump(path string) error {
	type spanOut struct {
		Layer   string `json:"layer"`
		Site    int    `json:"site"`
		Msg     string `json:"msg"`
		StartNs int64  `json:"start_ns"`
		DurNs   int64  `json:"dur_ns"`
	}
	out := struct {
		Summary []traceRow `json:"summary"`
		Spans   []spanOut  `json:"spans"`
	}{Summary: t.summary()}
	for _, a := range t.actors {
		for _, s := range a.spans {
			out.Spans = append(out.Spans, spanOut{a.layer, a.site, kindName(s.kind), s.startNs, s.durNs})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// journal, durable and media decorate the three wal boundaries; like wrap
// they return their argument unchanged when t is nil.
func (t *tracer) journal(j storage.Journal) storage.Journal {
	if t == nil {
		return j
	}
	return &timedJournal{tr: t, inner: j}
}

func (t *tracer) durable(d qm.Durable) qm.Durable {
	if t == nil {
		return d
	}
	return &timedDurable{tr: t, inner: d}
}

func (t *tracer) media(m wal.Media) wal.Media {
	if t == nil {
		return m
	}
	return &timedMedia{Media: m, tr: t}
}

// timedJournal times storage.Journal.RecordWrite, the point where a qm write
// enters the wal.
type timedJournal struct {
	tr    *tracer
	inner storage.Journal
}

func (j *timedJournal) RecordWrite(item model.ItemID, txn model.TxnID, value int64, version uint64, commitMicros int64) {
	if !j.tr.on.Load() {
		j.inner.RecordWrite(item, txn, value, version, commitMicros)
		return
	}
	start := time.Now()
	j.inner.RecordWrite(item, txn, value, version, commitMicros)
	j.tr.journalNs.Add(time.Since(start).Nanoseconds())
	j.tr.journalOps.Add(1)
}

// timedDurable times qm.Durable.Flush: how long the commit sequencer made a
// queue manager wait for the log to become durable.
type timedDurable struct {
	tr    *tracer
	inner qm.Durable
}

func (d *timedDurable) Flush() error {
	if !d.tr.on.Load() {
		return d.inner.Flush()
	}
	start := time.Now()
	err := d.inner.Flush()
	d.tr.flushNs.Add(time.Since(start).Nanoseconds())
	d.tr.flushOps.Add(1)
	return err
}

func (d *timedDurable) Crash()         { d.inner.Crash() }
func (d *timedDurable) Recover() error { return d.inner.Recover() }

// timedMedia times every Sync of the objects created through it and counts
// the bytes written; List, ReadAll and Remove pass through.
type timedMedia struct {
	wal.Media
	tr *tracer
}

func (m *timedMedia) Create(name string) (wal.Writer, error) {
	w, err := m.Media.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedWriter{Writer: w, tr: m.tr}, nil
}

type timedWriter struct {
	wal.Writer
	tr *tracer
}

func (w *timedWriter) Write(p []byte) (int, error) {
	n, err := w.Writer.Write(p)
	if w.tr.on.Load() {
		w.tr.mediaBytes.Add(int64(n))
	}
	return n, err
}

func (w *timedWriter) Sync() error {
	if !w.tr.on.Load() {
		return w.Writer.Sync()
	}
	start := time.Now()
	err := w.Writer.Sync()
	d := time.Since(start).Nanoseconds()
	w.tr.syncMu.Lock()
	w.tr.syncNs = append(w.tr.syncNs, d)
	w.tr.syncMu.Unlock()
	return err
}
