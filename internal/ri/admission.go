package ri

// AdmissionOptions configure the issuer's admission controller: the overload
// defense that sheds new transactions at the front door when the system is
// past saturation, so goodput plateaus near peak instead of every queue
// growing without bound.
//
// Two gates apply to every new-transaction start, both of which must pass:
//
//   - An in-flight window: at most Window() transactions (read-write and
//     read-only together) may be live at this issuer. The window moves by
//     AIMD — every commit whose latency is within target grows it additively
//     (+1/W per commit, one window per "RTT" of commits), every congestion
//     signal (a BusyMsg NAK from a saturated queue manager, or a commit
//     slower than TargetLatencyMicros) shrinks it multiplicatively, at most
//     once per CooldownMicros so one burst of NAKs is one decrease. The
//     window stays within [minWindow, maxWindow].
//   - A token bucket on starts: TokensPerSec tokens refill continuously up
//     to a depth of max(16, TokensPerSec/4) — a quarter second of rate, so
//     short arrival bursts ride through; each admitted transaction spends
//     one. This caps the start RATE independently of the window (a window
//     only caps concurrency — a stream of instantly-shed-or-failing
//     transactions would still churn). Zero disables the bucket.
//
// A shed transaction is reported to the collector with OutcomeShed and, in
// closed-loop mode, immediately frees its driver slot. It never issues a
// request, so shedding costs no messages.
type AdmissionOptions struct {
	// Enabled turns the controller on. The zero value keeps the issuer's
	// pre-backpressure behaviour: everything submitted is launched.
	Enabled bool
	// InitialWindow is the starting in-flight window (default 64).
	InitialWindow int
	// TargetLatencyMicros, when positive, treats a commit slower than this
	// as a congestion signal (multiplicative decrease). Zero means only
	// BusyMsg NAKs shrink the window.
	TargetLatencyMicros int64
	// TokensPerSec is the token-bucket refill rate for new-transaction
	// starts; zero disables the rate gate.
	TokensPerSec float64
	// DecreaseFactor is the multiplicative decrease (default 0.7).
	DecreaseFactor float64
	// CooldownMicros rate-limits decreases (default 10_000): every NAK of
	// one congestion episode must not each halve the window.
	CooldownMicros int64
}

const (
	// minWindow floors the multiplicative decrease: even a saturated site
	// keeps probing with a few transactions, or it could never discover
	// recovery.
	minWindow = 4
	// maxWindow caps the additive increase.
	maxWindow = 4096
)

func (o *AdmissionOptions) fill() {
	if o.InitialWindow <= 0 {
		o.InitialWindow = 64
	}
	if o.DecreaseFactor <= 0 || o.DecreaseFactor >= 1 {
		o.DecreaseFactor = 0.7
	}
	if o.CooldownMicros <= 0 {
		o.CooldownMicros = 10_000
	}
}

// admission is the controller state. It is owned by the issuer and accessed
// only under the issuer's mutex. A nil controller is admission disabled: it
// admits everything and ignores feedback.
type admission struct {
	opts         AdmissionOptions
	window       float64
	burst        float64 // token-bucket depth
	tokens       float64
	refillInit   bool // lastRefill is meaningful (engine time may start at 0)
	lastRefill   int64
	decreaseInit bool // lastDecrease is meaningful (same zero-time trap)
	lastDecrease int64
}

func newAdmission(o AdmissionOptions) *admission {
	o.fill()
	burst := float64(max(16, int(o.TokensPerSec/4)))
	return &admission{
		opts:   o,
		window: float64(o.InitialWindow),
		burst:  burst,
		tokens: burst,
	}
}

// admit decides one new-transaction start, spending a token when it passes.
func (a *admission) admit(now int64, inFlight int) bool {
	if a == nil {
		return true
	}
	if inFlight >= int(a.window) {
		return false
	}
	if a.opts.TokensPerSec > 0 {
		if !a.refillInit {
			a.refillInit = true
			a.lastRefill = now
		}
		a.tokens += float64(now-a.lastRefill) / 1e6 * a.opts.TokensPerSec
		a.lastRefill = now
		a.tokens = min(a.tokens, a.burst)
		if a.tokens < 1 {
			return false
		}
		a.tokens--
	}
	return true
}

// onCommit feeds one committed transaction's latency into AIMD.
func (a *admission) onCommit(now, latencyMicros int64) {
	if a == nil {
		return
	}
	if a.opts.TargetLatencyMicros > 0 && latencyMicros > a.opts.TargetLatencyMicros {
		a.decrease(now)
		return
	}
	a.window = min(a.window+1/a.window, maxWindow)
}

// onBusy feeds one BusyMsg NAK into AIMD.
func (a *admission) onBusy(now int64) {
	if a != nil {
		a.decrease(now)
	}
}

// currentWindow is the in-flight window, 0 when admission is disabled.
func (a *admission) currentWindow() float64 {
	if a == nil {
		return 0
	}
	return a.window
}

func (a *admission) decrease(now int64) {
	// The first congestion signal always counts — engine time may start at
	// 0, and a zero-valued lastDecrease must not read as "just decreased".
	if a.decreaseInit && now-a.lastDecrease < a.opts.CooldownMicros {
		return
	}
	a.decreaseInit = true
	a.lastDecrease = now
	a.window = max(a.window*a.opts.DecreaseFactor, minWindow)
}
