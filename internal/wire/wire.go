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

// AppendHeader encodes an envelope's header, its two addresses, onto b.
func AppendHeader(b []byte, from, to engine.Addr) ([]byte, error) {
	b, err := appendAddr(b, from)
	if err != nil {
		return b, err
	}
	return appendAddr(b, to)
}

// appendEnvelope encodes one envelope payload (header + tagged message)
// onto b against the stream state s, which it advances.
func appendEnvelope(b []byte, s *model.WireStream, env engine.Envelope) ([]byte, error) {
	b, err := AppendHeader(b, env.From, env.To)
	if err != nil {
		return b, err
	}
	return model.AppendMessage(b, s, env.Msg)
}

// decodeEnvelope decodes the header, then the tagged message through
// model.DecodeMessagePooled, against the stream state r carries. That
// decodes through a table of func values, so r escapes to the heap: a
// Reader decodes through the one it owns.
func decodeEnvelope(r *model.WireReader) (engine.Envelope, error) {
	var env engine.Envelope
	var fromOK, toOK bool
	env.From, fromOK = readAddr(r)
	env.To, toOK = readAddr(r)
	tag := model.WireTag(r.Byte())
	if err := r.Err(); err != nil {
		return engine.Envelope{}, err
	}
	if !fromOK || !toOK {
		return engine.Envelope{}, errLongAddr
	}
	msg, err := model.DecodeMessagePooled(tag, r)
	if err != nil {
		return engine.Envelope{}, err
	}
	if r.Remaining() != 0 {
		model.RecycleMessage(msg)
		return engine.Envelope{}, fmt.Errorf("%w: %d", ErrTrailingBytes, r.Remaining())
	}
	env.Msg = msg
	return env, nil
}

// Writer frames envelopes onto a buffered writer. It holds the stream state
// of its connection's direction (model.WireStream), so a connection has one
// Writer for its life and a new connection a new Writer. Not safe for
// concurrent use: in the transport each peer's single writer goroutine owns
// one Writer.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
	// stream is the state the frames written so far left; next is the
	// frame being encoded's, which becomes stream only once the frame has
	// encoded, so an envelope that fails with an EncodeError leaves no
	// trace (the reader never sees it).
	stream, next model.WireStream
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
// payload encoded after a reserved header area, the uvarint length then
// written backwards against the payload — so the write is one contiguous
// slice of already-heap-resident memory and the steady-state path allocates
// nothing (a stack-local header array would escape through the io.Writer
// interface on every call).
func (w *Writer) WriteEnvelope(env engine.Envelope) (int, error) {
	const hdrMax = binary.MaxVarintLen64
	var hdrZero [hdrMax]byte
	w.next = w.stream
	buf, err := appendEnvelope(append(w.scratch[:0], hdrZero[:]...), &w.next, env)
	if err != nil {
		return 0, &EncodeError{Err: err}
	}
	w.scratch = buf[:0] // keep the grown buffer
	payloadLen := len(buf) - hdrMax
	if payloadLen > MaxFrameBytes {
		// Don't pin the pathological buffer for the connection's lifetime
		// (the pool would refuse it at Release for the same reason).
		w.scratch = getBuf()
		return 0, &EncodeError{Err: ErrFrameTooLarge}
	}
	w.stream = w.next
	start := hdrMax - uvarintLen(uint64(payloadLen))
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
// Like a Writer it holds its connection's stream state, so a connection has
// one Reader for its life.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	// wr decodes each payload; it lives here, already on the heap, because
	// the decoders it is passed to make it escape.
	wr model.WireReader
	// stream is the state the frames decoded so far left. A frame advances
	// it only once it has decoded: an unknown tag is rejected before its
	// body is read, so a frame skipped for one leaves no trace, as on the
	// writing side.
	stream model.WireStream
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
// is untouched, so the caller may skip the frame and continue — the
// transport does exactly that for model.ErrWireUnknownTag, so a newer peer's
// appended message types don't sever a stream between builds of one wire
// version. Any other decode error leaves the reader at a frame boundary
// too, but the writer advanced its stream state past the frame, so the
// frames after it do not decode as sent.
func (r *Reader) ReadEnvelopePooled() (engine.Envelope, int, error) {
	payload, frameBytes, err := r.readFrame()
	if err != nil {
		return engine.Envelope{}, 0, err
	}
	// Frame fully consumed; a decode error is per-frame, not per-stream.
	r.wr = model.NewStreamReader(payload, r.stream)
	env, err := decodeEnvelope(&r.wr)
	if err == nil {
		r.stream = r.wr.Stream()
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
