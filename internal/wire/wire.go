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
// encoding — nil, or an empty batch — an address with none, or a frame over
// MaxFrameBytes). Nothing was written, so
// the stream is still intact: a writer may skip the envelope and continue,
// where an I/O error would require retiring the connection.
type EncodeError struct{ Err error }

func (e *EncodeError) Error() string { return "wire: encode: " + e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *EncodeError) Unwrap() error { return e.Err }

// bufPool recycles scratch buffers across Writers and one-shot encodes. 1 KiB
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

// AppendEnvelope encodes one envelope payload (header + tagged message)
// onto b.
func AppendEnvelope(b []byte, env engine.Envelope) ([]byte, error) {
	b, err := AppendHeader(b, env.From, env.To)
	if err != nil {
		return b, err
	}
	return model.AppendMessage(b, env.Msg)
}

// DecodeEnvelopePooled decodes exactly one envelope from payload; anything
// short, long, or unknown errors. Messages come back as
// model.DecodeMessagePooled returns them: the pooled types as pooled
// pointers (*model.RequestBatchMsg, *model.GrantBatchMsg, ...), so storing
// one in the Message interface costs no allocation, and the other types as
// values. The caller owns the message until it passes it to
// model.RecycleMessage or hands the envelope on to an owner that will — the
// transport's read loop delivers it to the runtime, whose mailbox loop
// recycles. Recycling a non-pooled message is a no-op, so a mixed stream
// needs no per-type handling; a caller that keeps a message takes
// model.RetainMessage's copy.
func DecodeEnvelopePooled(payload []byte) (engine.Envelope, error) {
	r := model.NewWireReader(payload)
	return decodeEnvelope(&r)
}

// decodeEnvelope decodes the header, then the tagged message through
// model.DecodeMessagePooled. That decodes through a table of func values, so
// r escapes to the heap: the one-shot form above pays that allocation per
// call, and a Reader decodes through the one it owns.
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

// EncodeEnvelope is the one-shot form: a fresh pooled buffer holding
// uvarint-length-prefixed frame bytes. The caller returns it with
// ReleaseFrame when done (tests, seed-corpus generation).
func EncodeEnvelope(env engine.Envelope) ([]byte, error) {
	payload, err := AppendEnvelope(getBuf(), env)
	if err != nil {
		putBuf(payload)
		return nil, err
	}
	b := getBuf()
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	putBuf(payload)
	return b, nil
}

// ReleaseFrame returns a buffer from EncodeEnvelope to the pool.
func ReleaseFrame(b []byte) { putBuf(b) }

// Writer frames envelopes onto a buffered writer. Not safe for concurrent
// use: in the transport each peer's single writer goroutine owns one Writer.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
}

// NewWriter wraps bw. Release returns the scratch buffer to the pool when
// the connection retires.
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
	buf, err := AppendEnvelope(append(w.scratch[:0], hdrZero[:]...), env)
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
type Reader struct {
	br  *bufio.Reader
	buf []byte
	// wr decodes each payload; it lives here, already on the heap, because
	// the decoders it is passed to make it escape.
	wr model.WireReader
}

// NewReader wraps br.
func NewReader(br *bufio.Reader) *Reader {
	return &Reader{br: br, buf: getBuf()}
}

// ReadEnvelopePooled reads and decodes one frame, returning the envelope
// and the frame's size in bytes; see DecodeEnvelopePooled for the forms the
// messages come back in and their lifetime. This is the transport's read
// path. io.EOF is returned ONLY at a frame boundary (a clean stream end); a
// stream that dies inside the length prefix or the payload returns
// io.ErrUnexpectedEOF, and a malformed payload a decode error. I/O errors
// lose framing and the stream must be abandoned, but a DECODE error does
// not: the payload was fully consumed before decoding, so the reader is
// still at a frame boundary and the caller may skip the frame and continue —
// the transport does exactly that for model.ErrWireUnknownTag, so a newer
// peer's appended message types don't sever a stream between builds of one
// wire version.
func (r *Reader) ReadEnvelopePooled() (engine.Envelope, int, error) {
	payload, frameBytes, err := r.readFrame()
	if err != nil {
		return engine.Envelope{}, 0, err
	}
	// Frame fully consumed; a decode error is per-frame, not per-stream.
	r.wr = model.NewWireReader(payload)
	env, err := decodeEnvelope(&r.wr)
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
