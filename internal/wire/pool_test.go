package wire

import (
	"bytes"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// TestPooledDecodeEquivalence: over the whole corpus, the pooled decode path
// must produce messages field-for-field equal to the plain path (compared in
// the form UnpoolMessage copies out), re-encode to the identical bytes, and
// return non-pooled types exactly as DecodeEnvelope would.
func TestPooledDecodeEquivalence(t *testing.T) {
	for i, env := range Corpus() {
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("envelope %d (%T): encode: %v", i, env.Msg, err)
		}
		plain, err := DecodeEnvelope(payload)
		if err != nil {
			t.Fatalf("envelope %d (%T): plain decode: %v", i, env.Msg, err)
		}
		pooled, err := DecodeEnvelopePooled(payload)
		if err != nil {
			t.Fatalf("envelope %d (%T): pooled decode: %v", i, env.Msg, err)
		}
		if pooled.From != plain.From || pooled.To != plain.To {
			t.Fatalf("envelope %d (%T): addresses differ: %+v vs %+v", i, env.Msg, pooled, plain)
		}
		if got := model.UnpoolMessage(pooled.Msg); !reflect.DeepEqual(got, plain.Msg) {
			t.Fatalf("envelope %d (%T): pooled message differs:\n pooled: %+v\n  plain: %+v", i, env.Msg, got, plain.Msg)
		}
		// A pooled pointer must re-encode byte-identically to the value form.
		re, err := AppendEnvelope(nil, pooled)
		if err != nil {
			t.Fatalf("envelope %d (%T): re-encode pooled: %v", i, env.Msg, err)
		}
		if !bytes.Equal(payload, re) {
			t.Fatalf("envelope %d (%T): pooled re-encode differs from original bytes", i, env.Msg)
		}
		model.RecycleMessage(pooled.Msg)
	}
}

// TestPooledTypesAreHotSet pins WHICH corpus messages come back pooled: the
// eleven fixed-size protocol types, the six bounded batches, the catch-up
// pull and reply and the wait-for report with their bounded arrays, the
// submit's Txn, and nothing else. Any other variable-size type coming back pooled
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
		reflect.TypeOf(model.RequestMsg{}):            true,
		reflect.TypeOf(model.FinalTSMsg{}):            true,
		reflect.TypeOf(model.ReleaseMsg{}):            true,
		reflect.TypeOf(model.AbortMsg{}):              true,
		reflect.TypeOf(model.GrantMsg{}):              true,
		reflect.TypeOf(model.NormalGrantMsg{}):        true,
		reflect.TypeOf(model.RejectMsg{}):             true,
		reflect.TypeOf(model.BackoffMsg{}):            true,
		reflect.TypeOf(model.BusyMsg{}):               true,
		reflect.TypeOf(model.SnapReadMsg{}):           true,
		reflect.TypeOf(model.SnapReadReplyMsg{}):      true,
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
// whose Txn UnpoolMessage has to copy out. A submit stays one pointer, so its
// struct is a value either way.
func decodedPooled(m model.Message) bool {
	if s, ok := m.(model.SubmitTxnMsg); ok {
		return model.UnpoolMessage(s).(model.SubmitTxnMsg).Txn != s.Txn
	}
	return reflect.TypeOf(m).Kind() == reflect.Pointer
}

// TestSendOnlyPooledTypesDecodeAsValues pins the decode half of the send-only
// rule (model/wirepool.go): TxnDone (tag 16), ComputeDone (20), Restart (21)
// and TxnFinished (22) leave an issuer, QueueStats (17) a queue manager and
// ProbeWFG (14) the deadlock detector as pooled pointers, encode to exactly their values' bytes, and come back
// from the pooled decoder as values — the form a client that knows only the
// value cases matches.
func TestSendOnlyPooledTypesDecodeAsValues(t *testing.T) {
	txn := model.TxnID{Site: 2, Seq: 41}
	stats := model.QueueStatsMsg{From: 2, AtMicros: 900, SinceMicros: 400, Grants: []model.QueueGrants{{Item: 3, Reads: 1, Writes: -1}, {Item: 7, Writes: 2}}}
	for _, tc := range []struct {
		tag    model.WireTag
		value  model.Message
		pooled model.Message
	}{
		{16, model.TxnDoneMsg{Txn: txn, Outcome: model.OutcomeCommitted, Attempts: 1, Size: 3, Messages: 6},
			model.PooledTxnDone(model.TxnDoneMsg{Txn: txn, Outcome: model.OutcomeCommitted, Attempts: 1, Size: 3, Messages: 6})},
		{20, model.ComputeDoneMsg{Txn: txn, Attempt: 2}, model.PooledComputeDone(model.ComputeDoneMsg{Txn: txn, Attempt: 2})},
		{21, model.RestartMsg{Txn: txn, Attempt: 3}, model.PooledRestart(model.RestartMsg{Txn: txn, Attempt: 3})},
		{22, model.TxnFinishedMsg{Txn: txn}, model.PooledTxnFinished(model.TxnFinishedMsg{Txn: txn})},
		{17, stats, model.PooledQueueStats(stats)},
		{14, model.ProbeWFGMsg{Round: 300}, model.PooledProbeWFG(model.ProbeWFGMsg{Round: 300})},
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
// must match the second message, not the first.
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
	p1, ok := env1.Msg.(*model.RequestMsg)
	if !ok {
		t.Fatalf("decoded %T, want *model.RequestMsg", env1.Msg)
	}
	if *p1 != full {
		t.Fatalf("first decode: got %+v, want %+v", *p1, full)
	}
	model.RecycleMessage(p1)

	env2, err := DecodeEnvelopePooled(encode(sparse))
	if err != nil {
		t.Fatal(err)
	}
	p2 := env2.Msg.(*model.RequestMsg)
	if *p2 != sparse {
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
// copied out with UnpoolMessage owns its members — the reuse cannot rewrite
// it.
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
	kept := model.UnpoolMessage(p1)
	model.RecycleMessage(p1)
	p2 := decode(two)
	if !reflect.DeepEqual(*p2, two) {
		t.Fatalf("decode after recycle: got %+v, want %+v", *p2, two)
	}
	model.RecycleMessage(p2)
	if !reflect.DeepEqual(kept, three) {
		t.Fatalf("unpooled copy changed under the pool's reuse: got %+v, want %+v", kept, three)
	}
}

// TestPooledDecodeErrorRecycles: a truncated payload must error on the pooled
// path exactly like the plain path, and return no message.
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
