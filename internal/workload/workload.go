package workload

import (
	"fmt"
	"math/rand"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// SizeDist selects the transaction-size distribution.
type SizeDist uint8

const (
	// SizeFixed: every transaction accesses exactly Size items.
	SizeFixed SizeDist = iota
	// SizeUniform: st ~ Uniform[SizeMin, SizeMax].
	SizeUniform
	// SizeGeometric: st ~ 1 + Geometric(p) truncated at SizeMax, with mean
	// targeted at Size.
	SizeGeometric
)

// AccessDist selects which items a transaction touches.
type AccessDist uint8

const (
	// AccessUniform draws items uniformly without replacement.
	AccessUniform AccessDist = iota
	// AccessZipf draws items Zipf(s=ZipfS)-skewed without replacement.
	AccessZipf
	// AccessHotspot sends HotFrac of accesses into the first HotItems items.
	AccessHotspot
	// AccessFixedSet draws items uniformly from Spec.ItemSet only — the
	// adversarial shape for partitioned services: all traffic lands on one
	// slice of the key space (e.g. the items of a single queue-manager
	// shard, see the HotShard scenario).
	AccessFixedSet
)

// Spec describes one driver's workload.
type Spec struct {
	// ArrivalPerSec is the Poisson arrival rate λ at this user site
	// (transactions per second of engine time). Ignored in closed-loop mode.
	ArrivalPerSec float64
	// ClosedLoop switches the driver from open-loop Poisson arrivals to a
	// fixed-concurrency closed loop: this many transactions are kept in
	// flight, each completion immediately launching the next. Closed loops
	// measure capacity (completions per second at fixed pressure) where an
	// open loop with a run-to-quiescence drain cannot — it eventually
	// commits every arrival no matter how slow the path. Requires the
	// site's issuer to send TxnFinishedMsg (cluster.AddDriver wires this).
	ClosedLoop int
	// HorizonMicros stops new arrivals after this engine time.
	HorizonMicros int64
	// MaxTxns additionally caps the number of arrivals (0 = unlimited).
	MaxTxns int

	Items int // number of logical items in the database

	SizeDist SizeDist
	Size     int // SizeFixed: exact; SizeGeometric: mean
	SizeMin  int // SizeUniform
	SizeMax  int // SizeUniform / SizeGeometric truncation

	// ReadFrac is the probability each accessed item is read (vs written).
	ReadFrac float64

	Access   AccessDist
	ZipfS    float64 // AccessZipf skew (>1)
	HotItems int     // AccessHotspot
	HotFrac  float64 // AccessHotspot
	// ItemSet is the AccessFixedSet universe (must be non-empty for that
	// distribution; transaction sizes are clamped to its cardinality).
	ItemSet []model.ItemID

	// Protocol shares; they are normalized. A transaction draws its
	// protocol from this distribution (the dynamic selector, when installed
	// at the RI, overrides the draw).
	Share2PL, ShareTO, SharePA float64
	// ShareRO is the share of read-only snapshot transactions: a transaction
	// drawn from this share reads all of its items (ReadFrac is ignored for
	// it) and runs under model.ROSnapshot — the no-lock fast path.
	ShareRO float64
	// ROSize overrides Size for read-only snapshot transactions (0 = use
	// Size); analytic read-only scans are typically larger than updates.
	ROSize int
	// ROComputeMicros overrides ComputeMicros for read-only snapshot
	// transactions (0 = use ComputeMicros); scans typically crunch longer.
	ROComputeMicros int64

	// ComputeMicros is the local computing phase duration per transaction.
	ComputeMicros int64
	// Class labels generated transactions (for per-class caching studies).
	Class string
}

// Validate fills defaults and checks consistency. Unset (zero) knobs take
// sane defaults; explicitly invalid knobs — negative shares or sizes, a
// non-positive Zipf skew, a hot fraction outside (0,1] — fail loudly rather
// than being silently replaced: a scenario library makes bad knob
// combinations a data-entry error, and a spec that runs with different
// numbers than its author wrote is worse than one that refuses to run.
func (s *Spec) Validate() error {
	if s.Items <= 0 {
		return fmt.Errorf("workload: Items must be positive")
	}
	if s.ArrivalPerSec < 0 {
		return fmt.Errorf("workload: ArrivalPerSec is negative (%g)", s.ArrivalPerSec)
	}
	if s.ClosedLoop < 0 {
		return fmt.Errorf("workload: ClosedLoop is negative (%d)", s.ClosedLoop)
	}
	if s.ArrivalPerSec == 0 && s.ClosedLoop == 0 {
		return fmt.Errorf("workload: ArrivalPerSec must be positive (or ClosedLoop set)")
	}
	if s.HorizonMicros < 0 {
		return fmt.Errorf("workload: HorizonMicros is negative (%d)", s.HorizonMicros)
	}
	if s.MaxTxns < 0 {
		return fmt.Errorf("workload: MaxTxns is negative (%d)", s.MaxTxns)
	}
	if s.Size < 0 || s.SizeMin < 0 || s.SizeMax < 0 {
		return fmt.Errorf("workload: negative transaction size (Size=%d SizeMin=%d SizeMax=%d)", s.Size, s.SizeMin, s.SizeMax)
	}
	if s.ComputeMicros < 0 || s.ROComputeMicros < 0 {
		return fmt.Errorf("workload: negative compute time (ComputeMicros=%d ROComputeMicros=%d)", s.ComputeMicros, s.ROComputeMicros)
	}
	if s.Size == 0 {
		s.Size = 4
	}
	if s.SizeMin == 0 {
		s.SizeMin = 1
	}
	if s.SizeMax == 0 {
		s.SizeMax = s.Size * 3
	}
	if s.SizeMax < s.SizeMin {
		return fmt.Errorf("workload: SizeMax %d < SizeMin %d", s.SizeMax, s.SizeMin)
	}
	if s.SizeMax > s.Items {
		s.SizeMax = s.Items
	}
	if s.Size > s.Items {
		s.Size = s.Items
	}
	if s.ReadFrac < 0 || s.ReadFrac > 1 {
		return fmt.Errorf("workload: ReadFrac out of range")
	}
	if s.Share2PL < 0 || s.ShareTO < 0 || s.SharePA < 0 || s.ShareRO < 0 {
		return fmt.Errorf("workload: negative protocol share (2PL=%g TO=%g PA=%g RO=%g)",
			s.Share2PL, s.ShareTO, s.SharePA, s.ShareRO)
	}
	if s.Share2PL+s.ShareTO+s.SharePA+s.ShareRO == 0 {
		s.Share2PL = 1
	}
	if s.ROSize < 0 {
		return fmt.Errorf("workload: ROSize is negative (%d)", s.ROSize)
	}
	if s.ROSize > s.Items {
		s.ROSize = s.Items
	}
	if s.ZipfS < 0 {
		return fmt.Errorf("workload: ZipfS is negative (%g)", s.ZipfS)
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.2
	} else if s.ZipfS <= 1 {
		// rand.NewZipf requires s > 1; an explicit skew in (0,1] would
		// previously run at a silently substituted 1.2.
		return fmt.Errorf("workload: ZipfS %g is not > 1 (the Zipf sampler requires s > 1)", s.ZipfS)
	}
	if s.HotItems < 0 {
		return fmt.Errorf("workload: HotItems is negative (%d)", s.HotItems)
	}
	if s.HotItems == 0 {
		s.HotItems = s.Items / 10
		if s.HotItems == 0 {
			s.HotItems = 1
		}
	}
	if s.Access == AccessHotspot && s.HotItems >= s.Items {
		return fmt.Errorf("workload: HotItems %d must be < Items %d for AccessHotspot", s.HotItems, s.Items)
	}
	if s.HotFrac < 0 || s.HotFrac > 1 {
		return fmt.Errorf("workload: HotFrac %g out of [0,1]", s.HotFrac)
	}
	if s.HotFrac == 0 {
		s.HotFrac = 0.8
	}
	if s.Access == AccessFixedSet {
		if len(s.ItemSet) == 0 {
			return fmt.Errorf("workload: AccessFixedSet needs a non-empty ItemSet")
		}
		if s.Size > len(s.ItemSet) {
			s.Size = len(s.ItemSet)
		}
		if s.SizeMax > len(s.ItemSet) {
			s.SizeMax = len(s.ItemSet)
		}
		if s.ROSize > len(s.ItemSet) {
			s.ROSize = len(s.ItemSet)
		}
	}
	return nil
}

// Driver is the per-user-site workload actor.
type Driver struct {
	site    model.SiteID
	spec    Spec
	nextSeq uint64
	count   int
	stopped bool
	zipf    *rand.Zipf
	// Phased mode (NewPhasedDriver): the phase list, the index of the
	// current phase, and the cumulative engine time at which it ends. nil
	// phases = the classic single-spec driver.
	phases   []Phase
	phaseIdx int
	phaseEnd int64
	// Generated counts by protocol, including the ROSnapshot class (for
	// verification).
	Generated [model.NumProtocols]uint64
}

// NewDriver builds a driver for one user site. The spec must be validated.
func NewDriver(site model.SiteID, spec Spec) (*Driver, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Driver{site: site, spec: spec}, nil
}

// OnMessage implements engine.Actor. The cluster posts the first TickMsg to
// start the arrival process; in closed-loop mode each TxnFinishedMsg from
// the site's issuer launches the replacement transaction.
func (d *Driver) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	switch v := msg.(type) {
	case model.TickMsg:
		if d.phases != nil {
			d.onPhasedTick(ctx, v)
		} else if d.spec.ClosedLoop > 0 {
			for i := 0; i < d.spec.ClosedLoop; i++ {
				d.launchOne(ctx)
			}
		} else {
			d.arrive(ctx)
		}
	case model.TxnFinishedMsg, *model.TxnFinishedMsg: // value, or the issuer's pooled send form
		if d.spec.ClosedLoop > 0 {
			d.launchOne(ctx)
		}
	case model.StopMsg:
		d.stopped = true
	default:
		// Drivers ignore everything else.
	}
}

// admitting reports whether a new arrival is still allowed.
func (d *Driver) admitting(now int64) bool {
	if d.stopped {
		return false
	}
	if d.spec.HorizonMicros > 0 && now >= d.spec.HorizonMicros {
		return false
	}
	if d.spec.MaxTxns > 0 && d.count >= d.spec.MaxTxns {
		return false
	}
	return true
}

// launchOne submits one transaction now (closed-loop slot fill).
func (d *Driver) launchOne(ctx engine.Context) {
	if !d.admitting(ctx.NowMicros()) {
		return
	}
	d.count++
	t := d.generate(ctx.Rand())
	ctx.Send(engine.RIAddr(d.site), model.SubmitTxnMsg{Txn: t})
}

func (d *Driver) arrive(ctx engine.Context) {
	if !d.admitting(ctx.NowMicros()) {
		return
	}
	d.launchOne(ctx)

	// Schedule the next Poisson arrival.
	gap := int64(ctx.Rand().ExpFloat64() * 1e6 / d.spec.ArrivalPerSec)
	if gap < 1 {
		gap = 1
	}
	ctx.SetTimer(gap, model.TickMsg{})
}

// generate draws one transaction.
func (d *Driver) generate(rng *rand.Rand) *model.Txn {
	d.nextSeq++
	id := model.TxnID{Site: d.site, Seq: d.nextSeq}

	// Draw order (size, items, read/write split, protocol) is load-bearing:
	// it keeps the generated stream of ShareRO=0 specs bit-identical to
	// pre-fast-path seeds.
	st := d.drawSize(rng)
	items := d.drawItems(rng, st)
	var reads, writes []model.ItemID
	for _, it := range items {
		if rng.Float64() < d.spec.ReadFrac {
			reads = append(reads, it)
		} else {
			writes = append(writes, it)
		}
	}
	p := d.drawProtocol(rng)
	d.Generated[p]++
	compute := d.spec.ComputeMicros
	if p == model.ROSnapshot {
		// Read-only snapshot transactions read every drawn item.
		if d.spec.ROSize > 0 && d.spec.ROSize != st {
			items = d.drawItems(rng, d.spec.ROSize)
		}
		reads, writes = items, nil
		if d.spec.ROComputeMicros > 0 {
			compute = d.spec.ROComputeMicros
		}
	}
	t := model.NewTxn(id, p, reads, writes, compute)
	t.Class = d.spec.Class
	return t
}

func (d *Driver) drawSize(rng *rand.Rand) int {
	switch d.spec.SizeDist {
	case SizeUniform:
		return d.spec.SizeMin + rng.Intn(d.spec.SizeMax-d.spec.SizeMin+1)
	case SizeGeometric:
		// Mean of 1+Geom(p) is 1/p; target mean Size.
		p := 1.0 / float64(d.spec.Size)
		n := 1
		for rng.Float64() > p && n < d.spec.SizeMax {
			n++
		}
		return n
	default:
		return d.spec.Size
	}
}

func (d *Driver) drawItems(rng *rand.Rand, st int) []model.ItemID {
	seen := map[model.ItemID]bool{}
	out := make([]model.ItemID, 0, st)
	guard := 0
	for len(out) < st {
		guard++
		if guard > 100*st && len(out) > 0 {
			break // pathological skew; accept fewer items
		}
		var it model.ItemID
		switch d.spec.Access {
		case AccessZipf:
			if d.zipf == nil {
				d.zipf = rand.NewZipf(rng, d.spec.ZipfS, 1, uint64(d.spec.Items-1))
			}
			it = model.ItemID(d.zipf.Uint64())
		case AccessHotspot:
			if rng.Float64() < d.spec.HotFrac {
				it = model.ItemID(rng.Intn(d.spec.HotItems))
			} else {
				it = model.ItemID(d.spec.HotItems + rng.Intn(d.spec.Items-d.spec.HotItems))
			}
		case AccessFixedSet:
			it = d.spec.ItemSet[rng.Intn(len(d.spec.ItemSet))]
		default:
			it = model.ItemID(rng.Intn(d.spec.Items))
		}
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	return out
}

func (d *Driver) drawProtocol(rng *rand.Rand) model.Protocol {
	total := d.spec.Share2PL + d.spec.ShareTO + d.spec.SharePA + d.spec.ShareRO
	x := rng.Float64() * total
	if x < d.spec.Share2PL {
		return model.TwoPL
	}
	if x < d.spec.Share2PL+d.spec.ShareTO {
		return model.TO
	}
	if x < d.spec.Share2PL+d.spec.ShareTO+d.spec.SharePA {
		return model.PA
	}
	return model.ROSnapshot
}
