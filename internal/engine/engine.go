package engine

import (
	"fmt"
	"math/rand"

	"ucc/internal/model"
)

// ActorKind partitions the address space by role.
type ActorKind uint8

const (
	// KindRI addresses the request issuer at a user site.
	KindRI ActorKind = iota
	// KindQM addresses the queue-manager host at a data site (one actor per
	// site manages all of that site's per-copy data queues).
	KindQM
	// KindDetector addresses the deadlock-detection coordinator.
	KindDetector
	// KindDriver addresses a workload driver.
	KindDriver
	// KindCollector addresses the metrics collector.
	KindCollector
)

func (k ActorKind) String() string {
	switch k {
	case KindRI:
		return "ri"
	case KindQM:
		return "qm"
	case KindDetector:
		return "det"
	case KindDriver:
		return "drv"
	case KindCollector:
		return "col"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Addr names an actor: a role plus a site/index. Sharded roles (the queue
// manager) additionally carry a shard index; the zero shard is the site's
// control shard and doubles as the whole-site address for unsharded roles.
type Addr struct {
	Kind ActorKind
	ID   model.SiteID
	// Shard selects a sub-actor within a sharded role (queue-manager shards).
	// Zero for every unsharded role and for shard 0 itself, so pre-sharding
	// addresses compare equal to their shard-0 successors.
	Shard uint8
}

func (a Addr) String() string {
	if a.Shard != 0 {
		return fmt.Sprintf("%s@%d/%d", a.Kind, a.ID, a.Shard)
	}
	return fmt.Sprintf("%s@%d", a.Kind, a.ID)
}

// RIAddr returns the address of site s's request issuer.
func RIAddr(s model.SiteID) Addr { return Addr{Kind: KindRI, ID: s} }

// QMAddr returns the address of site s's queue-manager control shard (shard
// 0): the destination for whole-site traffic — crash/recovery, stats ticks,
// deadlock probes — and for all data traffic when the site is unsharded.
func QMAddr(s model.SiteID) Addr { return Addr{Kind: KindQM, ID: s} }

// QMShardAddr returns the address of one queue-manager shard at site s. Each
// shard gets its own mailbox (and, on the real-time runtime, its own
// goroutine), so operations on items hashed to different shards execute in
// parallel. Shard 0 is identical to QMAddr(s).
func QMShardAddr(s model.SiteID, shard int) Addr {
	return Addr{Kind: KindQM, ID: s, Shard: uint8(shard)}
}

// DetectorAddr is the deadlock coordinator's address.
func DetectorAddr() Addr { return Addr{Kind: KindDetector} }

// DriverAddr returns the address of site s's workload driver.
func DriverAddr(s model.SiteID) Addr { return Addr{Kind: KindDriver, ID: s} }

// CollectorAddr is the metrics collector's address.
func CollectorAddr() Addr { return Addr{Kind: KindCollector} }

// Context is the capability surface an actor sees while handling a message.
// Implementations are not safe for use outside the handler invocation.
type Context interface {
	// NowMicros is the engine's current time in microseconds (virtual time
	// under the simulator, wall time under the runtime).
	NowMicros() int64
	// Self is the handling actor's own address.
	Self() Addr
	// Send delivers msg to the actor at 'to', FIFO per (sender, receiver)
	// pair. The simulator delivers after its latency model. The real-time
	// runtime delivers before Send returns — msg is then in the destination's
	// mailbox, or on the destination peer's outbox — so there sends made by
	// one goroutine arrive in program order whatever their sender address,
	// and sends two actors make under a common lock are ordered by that lock.
	// Send gives msg away: a pooled message (model/wirepool.go) is recycled by
	// whoever delivers it — or, across processes, by the transport once it
	// is on the wire — and the sender must not touch it again.
	Send(to Addr, msg model.Message)
	// SetTimer delivers msg back to this actor after delayMicros (no network
	// latency involved).
	SetTimer(delayMicros int64, msg model.Message)
	// Rand is a deterministic per-actor random source under the simulator.
	Rand() *rand.Rand
}

// Actor is a message-driven protocol state machine. OnMessage must not
// block, spawn goroutines, or retain ctx beyond the call. The one sanctioned
// block is the queue manager's drain-sync: the WAL sync a shard runs when
// its FlushMsg arrives, once per mailbox drain (never per write), behind
// which that shard's parked grants wait by design.
type Actor interface {
	OnMessage(ctx Context, from Addr, msg model.Message)
}

// LatencyModel computes the one-way network delay for a message. The model
// must be deterministic given the rng stream it is handed. Models are applied
// by the simulator (internal/sim); the real-time runtime adds no delay.
type LatencyModel interface {
	// DelayMicros returns the delivery delay from src to dst.
	DelayMicros(src, dst Addr, rng *rand.Rand) int64
}

// FixedLatency delivers every remote message after a constant delay; actors
// co-located at the same site address pay the (smaller) local delay.
type FixedLatency struct {
	// RemoteMicros is the site-to-site one-way delay.
	RemoteMicros int64
	// LocalMicros is the same-site delay (default 0).
	LocalMicros int64
}

// DelayMicros implements LatencyModel.
func (f FixedLatency) DelayMicros(src, dst Addr, _ *rand.Rand) int64 {
	if src.ID == dst.ID {
		return f.LocalMicros
	}
	return f.RemoteMicros
}

// UniformLatency draws the remote delay uniformly from [Min,Max] microseconds.
type UniformLatency struct {
	MinMicros, MaxMicros int64
	LocalMicros          int64
}

// DelayMicros implements LatencyModel.
func (u UniformLatency) DelayMicros(src, dst Addr, rng *rand.Rand) int64 {
	if src.ID == dst.ID {
		return u.LocalMicros
	}
	if u.MaxMicros <= u.MinMicros {
		return u.MinMicros
	}
	return u.MinMicros + rng.Int63n(u.MaxMicros-u.MinMicros+1)
}

// ExpLatency draws the remote delay from MeanMicros·Exp(1), truncated at
// 10× the mean, modelling a queueing network hop.
type ExpLatency struct {
	MeanMicros  int64
	LocalMicros int64
}

// DelayMicros implements LatencyModel.
func (e ExpLatency) DelayMicros(src, dst Addr, rng *rand.Rand) int64 {
	if src.ID == dst.ID {
		return e.LocalMicros
	}
	d := int64(rng.ExpFloat64() * float64(e.MeanMicros))
	if max := 10 * e.MeanMicros; d > max {
		d = max
	}
	return d
}
