// Package consumer exercises the poolsafe analyzer: every retention
// vector is flagged, while the wire package's own idioms — returning the
// pooled value, recycling on an error path, staging through a local value
// struct, reusing a variable after a fresh decode — stay clean.
package consumer

import "ps/internal/model"

type sink struct{ last model.Message }

type envelope struct{ Msg model.Message }

var global model.Message

func use(m model.Message) {}

func fieldEscape(s *sink) {
	m, _ := model.DecodeMessagePooled(1)
	s.last = m // want `stored into s\.last`
	model.RecycleMessage(m)
}

func globalEscape() {
	m, _ := model.DecodeMessagePooled(1)
	global = m // want `stored into package-level variable global`
	model.RecycleMessage(m)
}

func chanEscape(ch chan model.Message) {
	m, _ := model.DecodeMessagePooled(1)
	ch <- m // want `sent on a channel`
}

func goEscape() {
	m, _ := model.DecodeMessagePooled(1)
	go func() { use(m) }() // want `captured by a goroutine`
}

func appendEscape(buf []model.Message) []model.Message {
	m, _ := model.DecodeMessagePooled(1)
	return append(buf, m) // want `appended to a slice`
}

func useAfterRecycle() {
	m, _ := model.DecodeMessagePooled(1)
	model.RecycleMessage(m)
	use(m) // want `used after RecycleMessage`
}

// ok is the canonical lifetime: decode, use, recycle.
func ok() {
	m, _ := model.DecodeMessagePooled(1)
	use(m)
	model.RecycleMessage(m)
}

// okErrPath recycles on the error branch and transfers ownership to the
// caller on the happy path — both allowed.
func okErrPath() (model.Message, error) {
	m, err := model.DecodeMessagePooled(1)
	if err != nil {
		model.RecycleMessage(m)
		return nil, err
	}
	return m, nil
}

// okLocalValue stages the pooled message through a function-local value
// struct, the wire package's DecodeEnvelopePooled idiom.
func okLocalValue() {
	m, _ := model.DecodeMessagePooled(1)
	var env envelope
	env.Msg = m
	use(env.Msg)
	model.RecycleMessage(env.Msg)
}

// okLoop is the corpus-replay shape: one pooled message per iteration,
// recycled before the next.
func okLoop(n int) {
	for i := 0; i < n; i++ {
		m, _ := model.DecodeMessagePooled(1)
		use(m)
		model.RecycleMessage(m)
	}
}

// okReuse overwrites the variable with a fresh decode after recycling:
// the name is valid again.
func okReuse() {
	m, _ := model.DecodeMessagePooled(1)
	model.RecycleMessage(m)
	m, _ = model.DecodeMessagePooled(2)
	use(m)
	model.RecycleMessage(m)
}

func allowListed(s *sink) {
	m, _ := model.DecodeMessagePooled(1)
	//ucclint:allow poolsafe -- sink is drained synchronously before the recycle below
	s.last = m
	model.RecycleMessage(m)
}

// --- send-side pooled constructors (model.PooledX family) ---

func send(to int, m model.Message) {}

// okPooledSend is the canonical hot-path shape: box, hand to Send (ownership
// transfers by call — the delivery layer recycles), never touch again.
func okPooledSend() {
	send(1, model.PooledRequest(model.RequestMsg{Item: "a"}))
	g := model.PooledGrant(model.GrantMsg{Item: "b"})
	send(2, g)
}

// okPooledHarness is the bench-harness delivery-layer shape: box, deliver
// synchronously, recycle.
func okPooledHarness() {
	m := model.PooledRequest(model.RequestMsg{Item: "a"})
	use(m)
	model.RecycleMessage(m)
}

func pooledSendFieldEscape(s *sink) {
	m := model.PooledRequest(model.RequestMsg{Item: "a"})
	s.last = m // want `stored into s\.last`
	model.RecycleMessage(m)
}

func pooledSendChanEscape(ch chan model.Message) {
	g := model.PooledGrant(model.GrantMsg{Item: "b"})
	ch <- g // want `sent on a channel`
}

func pooledSendGoEscape() {
	m := model.PooledRequest(model.RequestMsg{Item: "a"})
	go func() { use(m) }() // want `captured by a goroutine`
}

func pooledSendAppendEscape(buf []model.Message) []model.Message {
	g := model.PooledGrant(model.GrantMsg{Item: "b"})
	return append(buf, g) // want `appended to a slice`
}

func pooledSendUseAfterRecycle() {
	m := model.PooledRequest(model.RequestMsg{Item: "a"})
	model.RecycleMessage(m)
	use(m) // want `used after RecycleMessage`
}

// okPooledBatchSend: a batch built in caller scratch and boxed at the Send,
// the issuer's and queue manager's shape.
func okPooledBatchSend(members []model.GrantMsg) {
	send(1, model.PooledGrantBatch(model.GrantBatchMsg{Members: members}))
}

func pooledBatchFieldEscape(s *sink) {
	b := model.PooledGrantBatch(model.GrantBatchMsg{})
	s.last = b // want `stored into s\.last`
	model.RecycleMessage(b)
}
