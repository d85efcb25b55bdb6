package repl

import (
	"fmt"
	"slices"

	"ucc/internal/model"
	"ucc/internal/wal"
)

// Defaults for Options zero values.
const (
	// DefaultPeriodMicros is the pull period (150ms): long against the
	// network's one-way delay (the race envelope documented in the package
	// comment), short against the failover windows the experiments measure.
	DefaultPeriodMicros = 150_000
	// DefaultBatchRecords bounds the records shipped in one ReplRecordsMsg;
	// a cut batch sets More and the puller re-pulls immediately.
	DefaultBatchRecords = 512
)

// Options configure one site's catch-up puller.
type Options struct {
	// Site is the local site.
	Site model.SiteID
	// Peers are the sites this one pulls from — every other site that
	// shares at least one replicated item with it.
	Peers []model.SiteID
	// PeriodMicros is the pull period (default DefaultPeriodMicros).
	PeriodMicros int64
	// BatchRecords bounds the records shipped per reply (default
	// DefaultBatchRecords).
	BatchRecords int
}

func (o *Options) fill() {
	if o.PeriodMicros <= 0 {
		o.PeriodMicros = DefaultPeriodMicros
	}
	if o.BatchRecords <= 0 {
		o.BatchRecords = DefaultBatchRecords
	}
}

// Puller tracks one site's per-peer catch-up watermarks. It has no lock of
// its own: the owning queue manager serializes every call under its control
// mutex, the same discipline as the rest of the manager's control plane.
type Puller struct {
	opts  Options
	marks map[model.SiteID]uint64
	peers []model.SiteID // the keys of marks, ascending
	have  []wal.Have     // TickHave's scratch
}

// NewPuller builds a puller with zero watermarks (first pulls stream each
// peer's log from the start, or hit the Reset path if already truncated).
func NewPuller(opts Options) *Puller {
	opts.fill()
	p := &Puller{opts: opts}
	p.SetPeers(opts.Peers)
	return p
}

// Site returns the local site.
func (p *Puller) Site() model.SiteID { return p.opts.Site }

// Peers returns the pull targets in ascending order (deterministic send
// order under the virtual-time simulator). The slice is the puller's own:
// callers must not modify it, and SetPeers replaces it.
func (p *Puller) Peers() []model.SiteID { return p.peers }

// PeriodMicros returns the pull period.
func (p *Puller) PeriodMicros() int64 { return p.opts.PeriodMicros }

// BatchRecords returns the per-reply record bound.
func (p *Puller) BatchRecords() int { return p.opts.BatchRecords }

// Mark returns the watermark for peer (zero for unknown peers).
func (p *Puller) Mark(peer model.SiteID) uint64 { return p.marks[peer] }

// Advance raises peer's watermark to seq, monotonically: a stale or
// reordered reply can never move a watermark backwards. (The Reset path
// also only ever raises it — Reset fires when mark < snapshot seq, and the
// reply's watermark is that snapshot seq.) Unknown peers are ignored. It
// reports whether the watermark moved.
func (p *Puller) Advance(peer model.SiteID, seq uint64) bool {
	cur, ok := p.marks[peer]
	if !ok || seq <= cur {
		return false
	}
	p.marks[peer] = seq
	return true
}

// SetPeers replaces the pull-target set (a rebalance changed which sites
// this one shares items with). Watermarks of kept peers are preserved — the
// records already applied from them stay applied — and new peers start from
// zero, streaming from the start or hitting the Reset path like any fresh
// peer. Same locking discipline as everything else here: the owning manager
// serializes the call under its control mutex.
func (p *Puller) SetPeers(peers []model.SiteID) {
	next := make(map[model.SiteID]uint64, len(peers))
	for _, peer := range peers {
		next[peer] = p.marks[peer]
	}
	p.marks = next
	p.peers = make([]model.SiteID, 0, len(next))
	for peer := range next {
		p.peers = append(p.peers, peer)
	}
	slices.Sort(p.peers)
}

// TickHave drains src's journal digest and encodes it for this period's
// pulls: what this site journaled since the previous period, so its peers
// can leave out what it already holds. Nil when nothing was journaled or the
// digest overflowed. The bytes are fresh each call — the pulls carrying them
// are still in flight when the next period starts.
func (p *Puller) TickHave(src Source) []byte {
	p.have = src.TakeHave(p.have[:0])
	if len(p.have) == 0 {
		return nil
	}
	return AppendHave(make([]byte, 0, 4*len(p.have)), p.have)
}

// ResetAll zeroes every watermark. Called on a local crash: shipped records
// applied since the last sync are lost with the rest of the volatile tail,
// so everything must be offered again — stamp-gating makes the re-shipment
// idempotent.
func (p *Puller) ResetAll() {
	for peer := range p.marks {
		p.marks[peer] = 0
	}
}

// Watermarks returns a copy of the per-peer watermark map.
func (p *Puller) Watermarks() map[model.SiteID]uint64 {
	out := make(map[model.SiteID]uint64, len(p.marks))
	for peer, seq := range p.marks {
		out[peer] = seq
	}
	return out
}

// Source is a site's log as the catch-up plane uses it (implemented by
// wal.SiteLog): peers' pulls are served from its durable records, and the
// site's own pulls carry the digest of what it journaled.
type Source interface {
	RecordsSince(afterSeq uint64, max int, skip func(item model.ItemID, commitMicros int64) bool) (frames []byte, next uint64, more, gap bool, err error)
	SnapshotRecords() (frames []byte, appliedSeq uint64, err error)
	TakeHave(dst []wal.Have) []wal.Have
}

// BuildBatch serves one pull against src: the incremental tail past
// afterSeq minus the records skip reports the puller already holds (nil
// ships them all), or — when that tail was truncated by a snapshot — the
// Reset image of the newest snapshot (More set so the puller immediately
// comes back for the tail above it).
func BuildBatch(from model.SiteID, src Source, afterSeq uint64, max int, skip func(item model.ItemID, commitMicros int64) bool) (model.ReplRecordsMsg, error) {
	frames, next, more, gap, err := src.RecordsSince(afterSeq, max, skip)
	if err != nil {
		return model.ReplRecordsMsg{}, err
	}
	if gap {
		frames, next, err = src.SnapshotRecords()
		if err != nil {
			return model.ReplRecordsMsg{}, err
		}
		if next <= afterSeq {
			// The snapshot predates the watermark the gap was detected
			// against — media changed underneath us mid-call.
			return model.ReplRecordsMsg{}, fmt.Errorf("repl: snapshot seq %d not past watermark %d", next, afterSeq)
		}
		return model.ReplRecordsMsg{From: from, Frames: frames, NextAfterSeq: next, Reset: true, More: true}, nil
	}
	return model.ReplRecordsMsg{From: from, Frames: frames, NextAfterSeq: next, More: more}, nil
}

// ApplyStats summarize one Apply pass over a shipped batch.
type ApplyStats struct {
	// Applied counts records the callback installed.
	Applied int
	// Skipped counts records the callback rejected as stale or duplicate
	// (stamp-gated idempotence) or as unknown items.
	Skipped int
	// Torn counts undecodable trailing bytes (a cut or corrupted frame);
	// everything before the tear still applied.
	Torn int
}

// Apply decodes a shipped frame batch with the WAL record codec and feeds
// each record to apply, which reports whether it installed the record. The
// decode is the same one recovery replay uses, so a batch that survives the
// wire replays exactly like local log bytes; torn or garbage tails are
// counted, never applied.
func Apply(frames []byte, apply func(r wal.Record) bool) ApplyStats {
	var st ApplyStats
	st.Torn = wal.DecodeRecordFrames(frames, func(r wal.Record) {
		if apply(r) {
			st.Applied++
		} else {
			st.Skipped++
		}
	})
	return st
}
