package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// MaxFrameBytes bounds one frame's payload. Protocol messages are tens of
// bytes; the biggest legitimate frames are control-plane maps (queue stats,
// estimates) over the item space, which stay far below this. The cap's job
// is to make a corrupt or hostile length prefix fail fast instead of driving
// a giant allocation.
const MaxFrameBytes = 8 << 20

// ErrFrameTooLarge reports a length prefix beyond MaxFrameBytes.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameBytes")

// ErrTrailingBytes reports a frame whose payload did not decode exactly.
var ErrTrailingBytes = errors.New("wire: trailing bytes after message")

// EncodeError wraps a per-envelope encoding failure (a message with no
// encoding — nil, an empty batch or a process-local message — an address
// with none, or a frame over MaxFrameBytes). Nothing was written, so the
// stream is still intact: a writer may skip the envelope and continue, where
// an I/O error would require retiring the connection.
type EncodeError struct{ Err error }

func (e *EncodeError) Error() string { return "wire: encode: " + e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *EncodeError) Unwrap() error { return e.Err }

// bufPool recycles scratch buffers across Writers and Readers. 1 KiB
// starting capacity covers every protocol message; control-plane maps grow a
// buffer once and the grown buffer is what returns to the pool.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

func getBuf() []byte {
	return (*(bufPool.Get().(*[]byte)))[:0]
}

func putBuf(b []byte) {
	if cap(b) > MaxFrameBytes {
		return // don't pin a pathological buffer in the pool
	}
	bufPool.Put(&b)
}

// errAddrKind reports an address whose actor kind (≥ 0x80) has no
// encoding: the long form's marker byte holds the kind in seven bits.
var errAddrKind = errors.New("wire: actor kind has no address encoding")

// errLongAddr reports a long-form address that fits the one-byte form. Each
// address has exactly one accepted encoding, like every other field.
var errLongAddr = fmt.Errorf("%w: long-form address fits one byte", model.ErrWireCorrupt)

// errMemoAddr reports a header that breaks the memo rule: an explicit
// address equal to the one its tag's last frame carried, which the writer
// must leave out, or a left-out address where no frame of its tag came
// before on the stream.
var errMemoAddr = fmt.Errorf("%w: frame header does not follow the address memo", model.ErrWireCorrupt)

// The frame header byte: the tag in the low six bits (model.MaxTag is 63),
// and one flag bit per address that says it follows explicitly.
const (
	tagMask  = byte(model.MaxTag)
	fromFlag = 0x40
	toFlag   = 0x80
)

// shortAddr reports whether a travels as one byte, kind<<4 | id: shard 0,
// kind < 8 and 0 ≤ id < 16, which is every address of a cluster of up to 16
// sites except the queue-manager shards past 0.
func shortAddr(a engine.Addr) bool {
	return a.Shard == 0 && a.Kind < 8 && a.ID >= 0 && a.ID < 16
}

// appendAddr encodes a in its one-byte form, or else as the marker byte
// 0x80|kind, the shard byte and the zig-zag varint id.
func appendAddr(b []byte, a engine.Addr) ([]byte, error) {
	if shortAddr(a) {
		return append(b, byte(a.Kind)<<4|byte(a.ID)), nil
	}
	if a.Kind >= 0x80 {
		return b, errAddrKind
	}
	b = append(b, 0x80|byte(a.Kind), a.Shard)
	return model.AppendVarint(b, int64(a.ID)), nil
}

// readAddr decodes one address; ok is false for a long form that fits the
// one-byte form.
func readAddr(r *model.WireReader) (a engine.Addr, ok bool) {
	b := r.Byte()
	if b < 0x80 {
		return engine.Addr{Kind: engine.ActorKind(b >> 4), ID: model.SiteID(b & 0x0f)}, true
	}
	a.Kind = engine.ActorKind(b &^ 0x80)
	a.Shard = r.Byte()
	a.ID = model.SiteID(r.Varint32())
	return a, !shortAddr(a)
}

// addrMemo is the header state of one direction of a connection: per tag,
// the addresses the last frame of that tag carried. On one connection the
// frames of one tag nearly always repeat them (every grant batch from a
// site's queue manager to another site's issuer is QM(s) → RI(i)), so a
// frame leaves out each address equal to its tag's slot, and the header is
// one byte. Keyed per tag, so a frame a reader skips for an unknown tag,
// which moved only its own tag's slot at the writer, leaves every slot a
// known tag reads in step. A slot changes only for a frame that completed,
// like model.WireStream: one slot per frame, so an encode or decode that
// fails has nothing to undo.
type addrMemo [model.MaxTag + 1]struct {
	from, to engine.Addr
	set      bool
}

// appendHeader encodes the header of env, a frame under tag, against m,
// which it does not change: the header byte, then each address that
// differs from tag's slot (both, if no frame of tag came before).
func (m *addrMemo) appendHeader(b []byte, tag model.WireTag, env engine.Envelope) ([]byte, error) {
	slot := &m[tag]
	hdr := byte(tag)
	if !slot.set || env.From != slot.from {
		hdr |= fromFlag
	}
	if !slot.set || env.To != slot.to {
		hdr |= toFlag
	}
	b = append(b, hdr)
	var err error
	if hdr&fromFlag != 0 {
		if b, err = appendAddr(b, env.From); err != nil {
			return b, err
		}
	}
	if hdr&toFlag != 0 {
		b, err = appendAddr(b, env.To)
	}
	return b, err
}

// resolve fills the addresses the header byte hdr left out of env from
// tag's slot, and rejects a header the writer could not have sent.
func (m *addrMemo) resolve(hdr byte, tag model.WireTag, env *engine.Envelope) error {
	slot := &m[tag]
	if !slot.set {
		if hdr&(fromFlag|toFlag) != fromFlag|toFlag {
			return errMemoAddr
		}
		return nil
	}
	if hdr&fromFlag == 0 {
		env.From = slot.from
	} else if env.From == slot.from {
		return errMemoAddr
	}
	if hdr&toFlag == 0 {
		env.To = slot.to
	} else if env.To == slot.to {
		return errMemoAddr
	}
	return nil
}

// put records env as tag's last frame.
func (m *addrMemo) put(tag model.WireTag, env engine.Envelope) {
	m[tag].from, m[tag].to, m[tag].set = env.From, env.To, true
}

// decodeEnvelope decodes one payload, the header and then the message body
// through model.DecodeMessagePooled, against the stream state r carries and
// the address memo m, neither of which it advances: the caller commits both
// once the frame has decoded. The body decodes before the memo is read, so
// an unknown tag reports ErrWireUnknownTag whatever its flags say. The
// decode goes through a table of func values, so r escapes to the heap: a
// Reader decodes through the one it owns.
func decodeEnvelope(r *model.WireReader, m *addrMemo) (engine.Envelope, model.WireTag, error) {
	var env engine.Envelope
	fromOK, toOK := true, true
	hdr := r.Byte()
	tag := model.WireTag(hdr & tagMask)
	if hdr&fromFlag != 0 {
		env.From, fromOK = readAddr(r)
	}
	if hdr&toFlag != 0 {
		env.To, toOK = readAddr(r)
	}
	if err := r.Err(); err != nil {
		return engine.Envelope{}, tag, err
	}
	if !fromOK || !toOK {
		return engine.Envelope{}, tag, errLongAddr
	}
	msg, err := model.DecodeMessagePooled(tag, r)
	if err != nil {
		return engine.Envelope{}, tag, err
	}
	if r.Remaining() != 0 {
		err = fmt.Errorf("%w: %d", ErrTrailingBytes, r.Remaining())
	} else {
		err = m.resolve(hdr, tag, &env)
	}
	if err != nil {
		model.RecycleMessage(msg)
		return engine.Envelope{}, tag, err
	}
	env.Msg = msg
	return env, tag, nil
}

// Writer frames envelopes onto a buffered writer. It holds the stream state
// of its connection's direction (model.WireStream and the address memo), so
// a connection has one Writer for its life and a new connection a new
// Writer. Not safe for concurrent use: in the transport each peer's single
// writer goroutine owns one Writer.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
	// stream is the state the frames written so far left; next is the
	// frame being encoded's, which becomes stream only once the frame has
	// encoded, so an envelope that fails with an EncodeError leaves no
	// trace (the reader never sees it). memo's one slot a frame moves is
	// set at the same point.
	stream, next model.WireStream
	memo         addrMemo
}

// NewWriter wraps bw, starting from a fresh connection's stream state.
// Release returns the scratch buffer to the pool when the connection
// retires.
func NewWriter(bw *bufio.Writer) *Writer {
	return &Writer{bw: bw, scratch: getBuf()}
}

// WriteEnvelope encodes env as one frame and writes it to the buffered
// writer (no flush). It returns the frame size in bytes.
//
// The frame is assembled entirely inside the writer's persistent scratch —
// payload encoded after an area reserved for the length prefix, the uvarint
// length then written backwards against the payload — so the write is one
// contiguous slice of already-heap-resident memory and the steady-state
// path allocates nothing (a stack-local length array would escape through
// the io.Writer interface on every call).
func (w *Writer) WriteEnvelope(env engine.Envelope) (int, error) {
	const lenMax = binary.MaxVarintLen64
	var lenZero [lenMax]byte
	tag, ok := model.MessageTag(env.Msg)
	if !ok {
		return 0, &EncodeError{Err: model.ErrNoEncoding}
	}
	buf, err := w.memo.appendHeader(append(w.scratch[:0], lenZero[:]...), tag, env)
	if err != nil {
		return 0, &EncodeError{Err: err}
	}
	w.next = w.stream
	if buf, err = model.AppendBody(buf, &w.next, env.Msg); err != nil {
		return 0, &EncodeError{Err: err}
	}
	w.scratch = buf[:0] // keep the grown buffer
	payloadLen := len(buf) - lenMax
	if payloadLen > MaxFrameBytes {
		// Don't pin the pathological buffer for the connection's lifetime
		// (the pool would refuse it at Release for the same reason).
		w.scratch = getBuf()
		return 0, &EncodeError{Err: ErrFrameTooLarge}
	}
	w.stream = w.next
	w.memo.put(tag, env)
	start := lenMax - uvarintLen(uint64(payloadLen))
	binary.PutUvarint(buf[start:], uint64(payloadLen))
	if _, err := w.bw.Write(buf[start:]); err != nil {
		return 0, err
	}
	return len(buf) - start, nil
}

// Release returns the writer's scratch buffer to the pool. The Writer must
// not be used afterwards.
func (w *Writer) Release() {
	if w.scratch != nil {
		putBuf(w.scratch)
		w.scratch = nil
	}
}

// Reader decodes frames from a buffered reader. The payload buffer grows to
// the largest frame seen and is reused for every subsequent frame; decoded
// messages never alias it (slice-carrying messages copy out during decode).
// Like a Writer it holds its connection's stream state and address memo, so
// a connection has one Reader for its life.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	// wr decodes each payload; it lives here, already on the heap, because
	// the decoders it is passed to make it escape.
	wr model.WireReader
	// stream is the state the frames decoded so far left, and memo their
	// addresses. A frame advances both only once it has decoded: an
	// unknown tag is rejected before its body or the memo is read, so a
	// frame skipped for one leaves no trace, as on the writing side.
	stream model.WireStream
	memo   addrMemo
}

// NewReader wraps br, starting from a fresh connection's stream state.
func NewReader(br *bufio.Reader) *Reader {
	return &Reader{br: br, buf: getBuf()}
}

// ReadEnvelopePooled reads and decodes one frame, returning the envelope
// and the frame's size in bytes. This is the transport's read path and the
// codec's only decoder. The pooled types come back as pooled pointers
// (*model.RequestBatchMsg, *model.GrantBatchMsg, ...), so storing one in the
// Message interface costs no allocation, and the other types as values (see
// model.DecodeMessagePooled). The caller owns the message until it passes it
// to model.RecycleMessage or hands the envelope on to an owner that will —
// the transport's read loop delivers it to the runtime, whose mailbox loop
// recycles. Recycling a non-pooled message is a no-op, so a mixed stream
// needs no per-type handling; a caller that keeps a message takes
// model.RetainMessage's copy.
//
// io.EOF is returned ONLY at a frame boundary (a clean stream end); a
// stream that dies inside the length prefix or the payload returns
// io.ErrUnexpectedEOF, and a malformed payload a decode error. I/O errors
// lose framing and the stream must be abandoned, but an unknown tag does
// not: the payload was fully consumed before decoding and the stream state
// and the address memo are untouched, so the caller may skip the frame and
// continue — the transport does exactly that for model.ErrWireUnknownTag,
// so a newer peer's appended message types don't sever a stream between
// builds of one wire version. Any other decode error leaves the reader at
// a frame boundary too, but the writer advanced its stream state and its
// memo past the frame, so the frames after it do not decode as sent.
func (r *Reader) ReadEnvelopePooled() (engine.Envelope, int, error) {
	payload, frameBytes, err := r.readFrame()
	if err != nil {
		return engine.Envelope{}, 0, err
	}
	// Frame fully consumed; a decode error is per-frame, not per-stream.
	r.wr = model.NewStreamReader(payload, r.stream)
	env, tag, err := decodeEnvelope(&r.wr, &r.memo)
	if err == nil {
		r.stream = r.wr.Stream()
		r.memo.put(tag, env)
	}
	return env, frameBytes, err
}

// readFrame reads one length-prefixed frame into the reader's buffer and
// returns its payload — valid until the next read — and the frame's size.
func (r *Reader) readFrame() ([]byte, int, error) {
	n, err := readFrameLen(r.br)
	if err != nil {
		return nil, 0, err
	}
	if n > MaxFrameBytes {
		return nil, 0, ErrFrameTooLarge
	}
	if uint64(cap(r.buf)) < n {
		// Growth, not a leak: the old buffer goes back. At least doubling, so
		// a frame that creeps up a few bytes at a time (the periodic queue
		// stats) does not buy a new buffer every time it does.
		putBuf(r.buf)
		r.buf = make([]byte, min(max(int(n), 2*cap(r.buf)), MaxFrameBytes))
	}
	payload := r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a frame died mid-payload
		}
		return nil, 0, err
	}
	return payload, uvarintLen(n) + int(n), nil
}

// Release returns the reader's payload buffer to the pool.
func (r *Reader) Release() {
	if r.buf != nil {
		putBuf(r.buf)
		r.buf = nil
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readFrameLen reads a frame's uvarint length prefix. Unlike
// binary.ReadUvarint — which surfaces a bare io.EOF even after consuming
// prefix bytes — a stream that ends mid-prefix reports io.ErrUnexpectedEOF,
// so "clean end of stream" is unambiguous for callers.
func readFrameLen(br *bufio.Reader) (uint64, error) {
	var v uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF // the prefix itself was torn
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, ErrFrameTooLarge // 64-bit overflow: beyond any cap
			}
			return v | uint64(b)<<s, nil
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, ErrFrameTooLarge
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
}
