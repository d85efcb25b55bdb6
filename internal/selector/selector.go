package selector

import (
	"sync"

	"ucc/internal/model"
	"ucc/internal/ri"
	"ucc/internal/stl"
)

// Static returns a ChooseFunc that always picks p (static concurrency
// control).
func Static(p model.Protocol) ri.ChooseFunc {
	return func(*model.Txn, model.EstimateMsg) model.Protocol { return p }
}

// Options tune the dynamic selector.
type Options struct {
	// Fallback is used while no estimates have arrived yet (cold start).
	Fallback model.Protocol
	// ReadOnlyFastPath routes pure-read transactions to the ROSnapshot
	// class (no queueing, no locks, snapshot reads) instead of evaluating
	// STL over the member protocols. The STL comparison is moot for such
	// transactions: a snapshot read has zero lock time and zero restart
	// probability, so no member protocol can beat it.
	ReadOnlyFastPath bool
	// ColdStart, when non-nil, replaces Fallback during warm-up with a full
	// min-STL decision over analytically derived parameters (§5.2's
	// "estimated through analytical methods"; see stl.Analytic).
	ColdStart *stl.SystemShape
}

const (
	// grid is the STL' evaluator resolution: selection needs ranking, not
	// precision.
	grid = 32
	// minLambdaA gates selection: below this measured system throughput
	// (requests per second) the estimates are noise and Fallback/ColdStart
	// is used.
	minLambdaA = 1
	// cacheTTLMicros ages per-class cache entries.
	cacheTTLMicros = 200_000
)

// Dynamic is the min-STL selector. One instance is shared by all issuers
// (its cache is protected by a mutex); the per-call cost is one STL'
// evaluation per protocol on a cache miss.
type Dynamic struct {
	mu   sync.Mutex
	opts Options

	cache map[classKey]cacheEntry
	// Decisions counts choices per protocol — including routes to the
	// ROSnapshot fast path at index model.ROSnapshot (observability for
	// EXP-6/EXP-10).
	Decisions [model.NumProtocols]uint64
}

type classKey struct {
	class string
	m, n  int
}

type cacheEntry struct {
	protocol model.Protocol
	stl      [3]float64
	atMicros int64
}

// NewDynamic builds a dynamic selector.
func NewDynamic(opts Options) *Dynamic {
	return &Dynamic{opts: opts, cache: map[classKey]cacheEntry{}}
}

// Choose implements ri.ChooseFunc.
func (d *Dynamic) Choose(t *model.Txn, est model.EstimateMsg) model.Protocol {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.opts.ReadOnlyFastPath && t.NumWrites() == 0 {
		d.Decisions[model.ROSnapshot]++
		return model.ROSnapshot
	}
	// A preset ROSnapshot tag the fast path will not take (path disabled
	// here) simply falls through to normal min-STL selection, whose return
	// value replaces the tag at the issuer.
	if est.LambdaA < minLambdaA {
		p := d.opts.Fallback
		if d.opts.ColdStart != nil {
			p = d.coldChoose(t)
		}
		d.Decisions[p]++
		return p
	}
	key := classKey{class: t.Class, m: t.NumReads(), n: t.NumWrites()}
	if c, ok := d.cache[key]; ok && est.AtMicros-c.atMicros < cacheTTLMicros {
		d.Decisions[c.protocol]++
		return c.protocol
	}
	vals, p := d.evaluate(t, est)
	d.cache[key] = cacheEntry{protocol: p, stl: vals, atMicros: est.AtMicros}
	d.Decisions[p]++
	return p
}

// Evaluate exposes the raw per-protocol STL values for a transaction (used
// by EXP-7 to compare predicted against measured rankings).
func (d *Dynamic) Evaluate(t *model.Txn, est model.EstimateMsg) [3]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	vals, _ := d.evaluate(t, est)
	return vals
}

// coldChoose runs min-STL over analytically derived parameters (no
// measurements yet).
func (d *Dynamic) coldChoose(t *model.Txn) model.Protocol {
	params, pp := stl.Analytic(*d.opts.ColdStart)
	ev, err := stl.NewEvaluator(params, grid)
	if err != nil {
		return d.opts.Fallback
	}
	var prof stl.TxnProfile
	for range t.ReadSet {
		prof.ReadItemsLambdaW = append(prof.ReadItemsLambdaW, params.LambdaW)
	}
	for range t.WriteSet {
		prof.WriteItemsLambdaW = append(prof.WriteItemsLambdaW, params.LambdaW)
		prof.WriteItemsLambdaR = append(prof.WriteItemsLambdaR, params.LambdaR)
	}
	return stl.Best(stl.ForTxn(ev, prof, pp))
}

func (d *Dynamic) evaluate(t *model.Txn, est model.EstimateMsg) ([3]float64, model.Protocol) {
	params := ParamsFromEstimates(est)
	ev, err := stl.NewEvaluator(params, grid)
	if err != nil {
		return [3]float64{}, d.opts.Fallback
	}
	prof := ProfileFromEstimates(t, est)
	pp := ProtocolParamsFromEstimates(est)
	vals := stl.ForTxn(ev, prof, pp)
	return vals, stl.Best(vals)
}

// ParamsFromEstimates converts a live estimate broadcast into STL model
// parameters.
func ParamsFromEstimates(est model.EstimateMsg) stl.Params {
	var sumR, sumW float64
	nR, nW := 0, 0
	for _, v := range est.LambdaR {
		sumR += v
		nR++
	}
	for _, v := range est.LambdaW {
		sumW += v
		nW++
	}
	p := stl.Params{LambdaA: est.LambdaA, Qr: est.Qr, K: est.K}
	if nR > 0 {
		p.LambdaR = sumR / float64(nR)
	}
	if nW > 0 {
		p.LambdaW = sumW / float64(nW)
	}
	if p.K < 1 {
		p.K = 1
	}
	return p
}

// ProfileFromEstimates builds the per-item rate profile of a transaction.
func ProfileFromEstimates(t *model.Txn, est model.EstimateMsg) stl.TxnProfile {
	var prof stl.TxnProfile
	for _, it := range t.ReadSet {
		prof.ReadItemsLambdaW = append(prof.ReadItemsLambdaW, est.LambdaW[it])
	}
	for _, it := range t.WriteSet {
		prof.WriteItemsLambdaW = append(prof.WriteItemsLambdaW, est.LambdaW[it])
		prof.WriteItemsLambdaR = append(prof.WriteItemsLambdaR, est.LambdaR[it])
	}
	return prof
}

// ProtocolParamsFromEstimates extracts the §5.2 per-protocol parameters.
// Missing lock-time estimates (a protocol nobody has run yet) default to a
// small optimistic value so the untried protocol gets explored.
func ProtocolParamsFromEstimates(est model.EstimateMsg) stl.ProtocolParams {
	u := func(p model.Protocol, fallback float64) float64 {
		if est.U[p] > 0 {
			return est.U[p]
		}
		return fallback
	}
	up := func(p model.Protocol, fallback float64) float64 {
		if est.UPrime[p] > 0 {
			return est.UPrime[p]
		}
		return fallback
	}
	const coldU = 0.005 // 5ms optimistic prior
	return stl.ProtocolParams{
		U2PL: u(model.TwoPL, coldU), U2PLAborted: up(model.TwoPL, coldU), PAbort: est.PAbort,
		UTO: u(model.TO, coldU), UTOAborted: up(model.TO, coldU), Pr: est.Pr, Pw: est.PwR,
		UPA: u(model.PA, coldU), UPABackoff: up(model.PA, coldU), PBr: est.PB, PBw: est.PBW,
	}
}
