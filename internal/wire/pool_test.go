package wire

import (
	"bytes"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// TestPooledDecodeEquivalence: over the whole corpus, a decode into structs
// the pools hand back dirty must equal the decode of a cold pass, field for
// field, and re-encode to the identical bytes. The cold pass holds every
// decoded message at once and then recycles them all, so the warm pass
// decodes into structs that last held other corpus messages of the type.
func TestPooledDecodeEquivalence(t *testing.T) {
	corpus := Corpus()
	payloads := make([][]byte, len(corpus))
	cold := make([]engine.Envelope, len(corpus))
	kept := make([]model.Message, len(corpus))
	for i, env := range corpus {
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("envelope %d (%T): encode: %v", i, env.Msg, err)
		}
		payloads[i] = payload
		if cold[i], err = DecodeEnvelopePooled(payload); err != nil {
			t.Fatalf("envelope %d (%T): cold decode: %v", i, env.Msg, err)
		}
		kept[i] = valueForm(model.RetainMessage(cold[i].Msg))
	}
	for _, env := range cold {
		model.RecycleMessage(env.Msg)
	}
	for i, env := range corpus {
		warm, err := DecodeEnvelopePooled(payloads[i])
		if err != nil {
			t.Fatalf("envelope %d (%T): warm decode: %v", i, env.Msg, err)
		}
		if warm.From != env.From || warm.To != env.To {
			t.Fatalf("envelope %d (%T): addresses differ: %+v vs %+v", i, env.Msg, warm, env)
		}
		if got := valueForm(warm.Msg); !reflect.DeepEqual(got, kept[i]) || !reflect.DeepEqual(got, env.Msg) {
			t.Fatalf("envelope %d (%T): warm decode differs:\n warm: %+v\n cold: %+v\n   in: %+v", i, env.Msg, got, kept[i], env.Msg)
		}
		re, err := AppendEnvelope(nil, warm)
		if err != nil {
			t.Fatalf("envelope %d (%T): re-encode: %v", i, env.Msg, err)
		}
		if !bytes.Equal(payloads[i], re) {
			t.Fatalf("envelope %d (%T): warm re-encode differs from original bytes", i, env.Msg)
		}
		model.RecycleMessage(warm.Msg)
	}
}

// TestPooledTypesAreHotSet pins WHICH corpus messages come back pooled: the
// fixed-size protocol types and timers, the six bounded batches (of one
// member, too), the catch-up pull and
// reply, the wait-for report and the stats report with their bounded arrays,
// the submit's Txn, and nothing else. Any other variable-size type coming back pooled
// here means someone pooled a message whose slices or maps would pin memory;
// a hot type coming back unpooled means the pool silently stopped covering
// it.
func TestPooledTypesAreHotSet(t *testing.T) {
	pooled := map[reflect.Type]bool{
		reflect.TypeOf(model.SubmitTxnMsg{}):          true,
		reflect.TypeOf(model.ReplPullMsg{}):           true,
		reflect.TypeOf(model.ReplRecordsMsg{}):        true,
		reflect.TypeOf(model.WFGReportMsg{}):          true,
		reflect.TypeOf(model.RequestBatchMsg{}):       true,
		reflect.TypeOf(model.ReleaseBatchMsg{}):       true,
		reflect.TypeOf(model.AbortBatchMsg{}):         true,
		reflect.TypeOf(model.GrantBatchMsg{}):         true,
		reflect.TypeOf(model.SnapReadBatchMsg{}):      true,
		reflect.TypeOf(model.SnapReadReplyBatchMsg{}): true,
		reflect.TypeOf(model.FinalTSMsg{}):            true,
		reflect.TypeOf(model.NormalGrantMsg{}):        true,
		reflect.TypeOf(model.RejectMsg{}):             true,
		reflect.TypeOf(model.BackoffMsg{}):            true,
		reflect.TypeOf(model.BusyMsg{}):               true,
		reflect.TypeOf(model.ProbeWFGMsg{}):           true,
		reflect.TypeOf(model.QueueStatsMsg{}):         true,
		reflect.TypeOf(model.ComputeDoneMsg{}):        true,
		reflect.TypeOf(model.RestartMsg{}):            true,
	}
	for i, env := range Corpus() {
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("envelope %d: encode: %v", i, err)
		}
		got, err := DecodeEnvelopePooled(payload)
		if err != nil {
			t.Fatalf("envelope %d: decode: %v", i, err)
		}
		if isPooled, want := decodedPooled(got.Msg), pooled[reflect.TypeOf(env.Msg)]; isPooled != want {
			t.Errorf("envelope %d (%T): pooled=%v, want %v", i, env.Msg, isPooled, want)
		}
		model.RecycleMessage(got.Msg)
	}
}

// decodedPooled reports whether m came out of a pool: a pointer, or a submit
// whose Txn RetainMessage has to copy out. A submit stays one pointer, so its
// struct is a value either way.
func decodedPooled(m model.Message) bool {
	if s, ok := m.(model.SubmitTxnMsg); ok {
		return model.RetainMessage(s).(model.SubmitTxnMsg).Txn != s.Txn
	}
	return reflect.TypeOf(m).Kind() == reflect.Pointer
}

// valueForm is m as the value it was encoded from: a pooled pointer's value
// with its exported fields only (the array a pooled message keeps is
// unexported), a submit with its pooled Txn copied out, and any other
// message as it is. Compare it before m is recycled: a pooled value's
// slices still lie in the arrays m keeps.
func valueForm(m model.Message) model.Message {
	if s, ok := m.(model.SubmitTxnMsg); ok {
		return model.RetainMessage(s)
	}
	v := reflect.ValueOf(m)
	if v.Kind() != reflect.Pointer {
		return m
	}
	v = v.Elem()
	out := reflect.New(v.Type()).Elem()
	for i := range v.NumField() {
		if v.Type().Field(i).IsExported() {
			out.Field(i).Set(v.Field(i))
		}
	}
	return out.Interface().(model.Message)
}

// valueEnvelope is env with its message in valueForm.
func valueEnvelope(env engine.Envelope) engine.Envelope {
	env.Msg = valueForm(env.Msg)
	return env
}

// TestSendOnlyPooledTypesDecodeAsValues pins the decode half of the send-only
// rule (model/wirepool.go): TxnDone (tag 16) and TxnFinished (22) leave an
// issuer as pooled pointers, encode to exactly their values' bytes, and come
// back from the pooled decoder as values — the form a client that knows only
// the value cases matches.
func TestSendOnlyPooledTypesDecodeAsValues(t *testing.T) {
	txn := model.TxnID{Site: 2, Seq: 41}
	for _, tc := range []struct {
		tag    model.WireTag
		value  model.Message
		pooled model.Message
	}{
		{16, model.TxnDoneMsg{Txn: txn, Outcome: model.OutcomeCommitted, Attempts: 1, Size: 3, Messages: 6},
			model.PooledTxnDone(model.TxnDoneMsg{Txn: txn, Outcome: model.OutcomeCommitted, Attempts: 1, Size: 3, Messages: 6})},
		{22, model.TxnFinishedMsg{Txn: txn}, model.PooledTxnFinished(model.TxnFinishedMsg{Txn: txn})},
	} {
		want, err := model.AppendMessage(nil, tc.value)
		if err != nil {
			t.Fatalf("tag %d: encode value: %v", tc.tag, err)
		}
		got, err := model.AppendMessage(nil, tc.pooled)
		if err != nil {
			t.Fatalf("tag %d: encode pooled: %v", tc.tag, err)
		}
		if !bytes.Equal(got, want) || model.WireTag(got[0]) != tc.tag {
			t.Fatalf("tag %d: pooled form encodes to % x, value form to % x", tc.tag, got, want)
		}
		model.RecycleMessage(tc.pooled)
		r := model.NewWireReader(want[1:])
		m, err := model.DecodeMessagePooled(tc.tag, &r)
		if err != nil {
			t.Fatalf("tag %d: decode: %v", tc.tag, err)
		}
		if !reflect.DeepEqual(m, tc.value) {
			t.Errorf("tag %d: DecodeMessagePooled returned %T %+v, want the value %T", tc.tag, m, m, tc.value)
		}
		model.RecycleMessage(m)
	}
}

// TestPoolReuseSafety: recycling must fully reset a struct so a later decode
// through the same pool slot cannot leak a previous message's fields. Decode
// a fully-populated request, recycle it, then decode a mostly-zero request —
// single-threaded, so the pool hands back the same struct — and every field
// must match the second message, not the first. A request decodes as the
// batch of one it stands for.
func TestPoolReuseSafety(t *testing.T) {
	full := model.RequestMsg{
		Txn: model.TxnID{Site: 3, Seq: 99}, Attempt: 7, Protocol: model.PA,
		Kind: model.OpWrite, Copy: model.CopyID{Item: 41, Site: 2},
		TS: 1 << 50, Interval: 999, Site: 3,
	}
	sparse := model.RequestMsg{Txn: model.TxnID{Site: 1, Seq: 1}}

	encode := func(m model.Message) []byte {
		payload, err := AppendEnvelope(nil, corpusEnvelopeWith(m))
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		return payload
	}

	env1, err := DecodeEnvelopePooled(encode(full))
	if err != nil {
		t.Fatal(err)
	}
	p1, ok := env1.Msg.(*model.RequestBatchMsg)
	if !ok {
		t.Fatalf("decoded %T, want *model.RequestBatchMsg", env1.Msg)
	}
	if len(p1.Members) != 1 || p1.Request(0) != full {
		t.Fatalf("first decode: got %+v, want %+v", *p1, full)
	}
	model.RecycleMessage(p1)

	env2, err := DecodeEnvelopePooled(encode(sparse))
	if err != nil {
		t.Fatal(err)
	}
	p2 := env2.Msg.(*model.RequestBatchMsg)
	if len(p2.Members) != 1 || p2.Request(0) != sparse {
		t.Fatalf("decode after recycle leaked prior fields: got %+v, want %+v", *p2, sparse)
	}
	model.RecycleMessage(p2)

	// Recycling non-pooled messages — values, variable-size types, nil — must
	// be a silent no-op, so mixed streams can recycle unconditionally.
	model.RecycleMessage(model.RequestMsg{})
	model.RecycleMessage(model.VictimMsg{Txn: full.Txn})
	model.RecycleMessage(nil)
}

// TestPooledBatchReuse: a recycled batch hands its members array to the next
// decode without leaking the previous message's members into it, and a batch
// copied with RetainMessage owns its members — the reuse cannot rewrite it.
func TestPooledBatchReuse(t *testing.T) {
	three := model.RequestBatchMsg{Txn: model.TxnID{Site: 3, Seq: 99}, Attempt: 7, Protocol: model.TO, TS: 1 << 40, Site: 3, CopySite: 2,
		Members: []model.RequestMember{{Item: 1, Kind: model.OpWrite}, {Item: 2}, {Item: 3, Kind: model.OpWrite}}}
	two := model.RequestBatchMsg{Txn: model.TxnID{Site: 1, Seq: 1}, CopySite: 2,
		Members: []model.RequestMember{{Item: 4}, {Item: 5}}}
	decode := func(m model.RequestBatchMsg) *model.RequestBatchMsg {
		payload, err := AppendEnvelope(nil, corpusEnvelopeWith(m))
		if err != nil {
			t.Fatal(err)
		}
		env, err := DecodeEnvelopePooled(payload)
		if err != nil {
			t.Fatal(err)
		}
		return env.Msg.(*model.RequestBatchMsg)
	}
	p1 := decode(three)
	kept := model.RetainMessage(p1).(*model.RequestBatchMsg)
	model.RecycleMessage(p1)
	p2 := decode(two)
	if !reflect.DeepEqual(*p2, two) {
		t.Fatalf("decode after recycle: got %+v, want %+v", *p2, two)
	}
	model.RecycleMessage(p2)
	if !reflect.DeepEqual(*kept, three) {
		t.Fatalf("retained copy changed under the pool's reuse: got %+v, want %+v", *kept, three)
	}
}

// TestPooledDecodeErrorRecycles: a truncated payload must error, and return
// no message.
func TestPooledDecodeErrorRecycles(t *testing.T) {
	payload, err := AppendEnvelope(nil, corpusEnvelopeWith(model.RequestMsg{
		Txn: model.TxnID{Site: 1, Seq: 2}, TS: 1 << 40,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(payload) - 1; cut > 0; cut-- {
		env, err := DecodeEnvelopePooled(payload[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
		if env.Msg != nil {
			t.Fatalf("truncation at %d returned a message alongside the error", cut)
		}
	}
}

// corpusEnvelopeWith wraps m in a fixed RI→QM envelope.
func corpusEnvelopeWith(m model.Message) engine.Envelope {
	return engine.Envelope{From: engine.RIAddr(1), To: engine.QMShardAddr(2, 0), Msg: m}
}
