// Package wire defines the binary protocol between the join coordinator
// and remote workers: length-delimited frames with a one-byte type,
// varint-encoded payloads, and delta-encoded token sets (tokens are sorted
// ascending, so gaps are small and compress well).
//
// Frame layout:
//
//	[type: 1 byte][payload length: uvarint][payload]
//
// The protocol is request/response-free on the data path: the coordinator
// streams Hello, Record... , EOF; the worker streams Result..., Stats, and
// closes. Both sides therefore run one reader and one writer goroutine
// with no locking. Fault-tolerant sessions (Hello flag FT, protocol v2)
// add three control frames outside the data path: Ping/Pong liveness
// probes and the ResumeAck cursor answer to a resuming Hello.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/record"
	"repro/internal/tokens"
)

// Frame types. Each constant declares its consumer with a handled-by
// marker; the wirestate analyzer verifies that every declared role has a
// matching arm in an annotated dispatch switch (or a wire-handled site).
const (
	TypeHello  byte = iota + 1 // handled-by: worker
	TypeRecord                 // handled-by: worker
	TypeResult                 // handled-by: coordinator
	// TypeEOF ends the coordinator's record stream; payload-free, the
	// worker reacts to the frame type alone. handled-by: worker
	TypeEOF
	TypeStats // handled-by: coordinator
	// TypeSnapshot carries an opaque checkpoint blob: coordinator→worker
	// right after Hello to seed the window, or worker→coordinator after
	// Stats when the coordinator ended the stream with TypeSnapshotReq.
	// handled-by: coordinator,worker
	TypeSnapshot
	// TypeSnapshotReq replaces TypeEOF when the coordinator wants the
	// worker's window state back; payload-free like TypeEOF.
	// handled-by: worker
	TypeSnapshotReq
	// TypePing is a coordinator→worker liveness probe; payload-free and
	// flushed immediately so it cannot sit in the write buffer.
	// handled-by: worker
	TypePing
	// TypePong is the worker's payload-free answer to TypePing, likewise
	// flushed immediately. handled-by: coordinator
	TypePong
	// TypeResumeAck answers a resuming Hello (flag bit 2): the worker
	// reports the stream cursor it restored from its checkpoint so the
	// coordinator can replay only the tail. Payload is one uvarint — the
	// next record ID the worker expects (0 = nothing restored, replay all).
	// A v4 worker appends a second uvarint, its initial record-credit
	// window; its presence is how the coordinator learns the peer speaks
	// v4 (see ReadResumeAckCredit). handled-by: coordinator
	TypeResumeAck
	// TypePause (v4) is a payload-free flow-control notice, valid in both
	// directions once a v4 FT session is negotiated. Worker→coordinator it
	// means "my unacknowledged-result buffer crossed its high watermark;
	// hold the record stream". Coordinator→worker it parks the session:
	// the worker keeps answering pings but should expect no records until
	// Resume. Flushed immediately, like Ping.
	// handled-by: coordinator,worker
	TypePause
	// TypeResume (v4) is the payload-free counterpart of TypePause: the
	// sender's pressure dropped below its low watermark and the stream may
	// flow again. handled-by: coordinator,worker
	TypeResume
	// TypeCredit (v4) grants flow-control credit; payload is one uvarint
	// delta. Worker→coordinator it means "I processed n more records; send
	// n more". Coordinator→worker it acknowledges n more results as
	// durable (persisted to the results log), letting the worker drop them
	// from its unacknowledged-result buffer. Credits are per-connection
	// and reset at each handshake. handled-by: coordinator,worker
	TypeCredit
)

// Version is the protocol version carried in Hello. Version 2 added the
// fault-tolerance handshake: Hello carries a session ID plus FT/Resume
// flags, and the Ping, Pong and ResumeAck frame types exist. Version 3
// added the optional trace-context annotation on Record frames (flags
// bit 4: trace id + parent span index appended after the token list);
// untraced records encode byte-identically to version 2, so the
// annotation costs nothing off the sampled path. Version 4 added flow
// control and durable recovery: the Pause/Resume/Credit frames, a
// partition-plan hash appended to Hello, the Durable hello flag, and an
// initial-credit field on ResumeAck.
//
// Negotiation is asymmetric by design: a peer accepts any version in
// [MinVersion, Version] (ReadHello), and the v4 additions appear on the
// wire only when the Hello that opened the session carried version >= 4 —
// a session pinned at version 2 or 3 encodes byte-identically to the old
// protocol, so new coordinators interoperate with old workers by sending
// the older version.
const Version = 4

// MinVersion is the oldest Hello version a peer still accepts.
const MinVersion = 2

// MaxFrame bounds a frame payload; larger frames indicate corruption.
const MaxFrame = 1 << 24

// ErrFrameTooLarge is returned when a frame exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Hello configures a worker for one join session.
type Hello struct {
	Version   int
	Task      int // this worker's task index
	Workers   int // total worker count
	Func      int // similarity.Func
	Threshold float64
	Algorithm int // local.Algorithm
	// Window: 0 unbounded, 1 count, 2 time; N is the size/span.
	WindowKind int
	WindowN    int64
	// Strategy: 0 length, 1 prefix, 2 broadcast. Bounds carries the
	// length partition for strategy 0.
	Strategy int
	Bounds   []int
	// Bundle config.
	GroupThreshold float64
	MaxMembers     int
	OneByOne       bool
	// Bi marks a two-stream session: records carry a side flag and match
	// only across sides.
	Bi bool
	// FT marks a fault-tolerant session: the coordinator may ping, record
	// IDs are strictly increasing per connection (so the worker can drop
	// duplicates), and the worker checkpoints its window for recovery.
	FT bool
	// Resume asks the worker to restore the checkpoint saved under
	// SessionID/Task before answering with a ResumeAck frame.
	Resume bool
	// SessionID names the run across reconnects; FT checkpoints are keyed
	// by it. Zero for non-FT sessions.
	SessionID uint64
	// Durable (v4, flags bit 16) marks a session whose results are
	// persisted coordinator-side: the worker must buffer results until the
	// coordinator acknowledges them with Credit frames, and re-send the
	// unacknowledged tail after a resume.
	Durable bool
	// PlanHash (v4) fingerprints the session's launch configuration
	// (partition plan, strategy, similarity parameters). A resuming worker
	// compares it against its checkpoint and rejects a mismatch — the
	// checkpoint belongs to a different plan and would replay wrong-range
	// records. Encoded only when Version >= 4.
	PlanHash uint64
}

// Record is a routed record copy with its storage role and, for
// two-stream sessions, its side. TraceID and ParentSpan carry the
// distributed-tracing context of a sampled tuple (TraceID 0 = untraced):
// the worker records its span fragments under TraceID, parented at span
// index ParentSpan of the coordinator's root trace.
type Record struct {
	Store      bool
	Right      bool
	TraceID    uint64
	ParentSpan int
	Rec        *record.Record
}

// Result is one verified pair.
type Result struct {
	A, B record.ID
	Sim  float64
}

// Stats carries a worker's final work counters back to the coordinator.
type Stats struct {
	Probes, Stored, Scanned, Candidates, Verified, Results, VerifySteps, Postings uint64
}

// Writer frames and buffers outbound messages. Not safe for concurrent
// use.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

func (w *Writer) putUvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

func (w *Writer) putVarint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

func (w *Writer) putFloat(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	w.buf = append(w.buf, b[:]...)
}

func (w *Writer) flushFrame(typ byte) error {
	if len(w.buf) > MaxFrame {
		return ErrFrameTooLarge
	}
	if err := w.w.WriteByte(typ); err != nil {
		return err
	}
	n := binary.PutUvarint(w.tmp[:], uint64(len(w.buf)))
	if _, err := w.w.Write(w.tmp[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// WriteHello sends the session handshake.
func (w *Writer) WriteHello(h Hello) error {
	w.putUvarint(uint64(h.Version))
	w.putUvarint(uint64(h.Task))
	w.putUvarint(uint64(h.Workers))
	w.putUvarint(uint64(h.Func))
	w.putFloat(h.Threshold)
	w.putUvarint(uint64(h.Algorithm))
	w.putUvarint(uint64(h.WindowKind))
	w.putVarint(h.WindowN)
	w.putUvarint(uint64(h.Strategy))
	w.putUvarint(uint64(len(h.Bounds)))
	for _, b := range h.Bounds {
		w.putUvarint(uint64(b))
	}
	w.putFloat(h.GroupThreshold)
	w.putUvarint(uint64(h.MaxMembers))
	var flags byte
	if h.OneByOne {
		flags |= 1
	}
	if h.Bi {
		flags |= 2
	}
	if h.FT {
		flags |= 4
	}
	if h.Resume {
		flags |= 8
	}
	if h.Durable {
		flags |= 16
	}
	w.buf = append(w.buf, flags)
	w.putUvarint(h.SessionID)
	if h.Version >= 4 {
		w.putUvarint(h.PlanHash)
	}
	return w.flushFrame(TypeHello)
}

// WriteRecord sends one routed record copy. Tokens must be sorted
// ascending (they are delta-encoded).
func (w *Writer) WriteRecord(store bool, r *record.Record) error {
	return w.WriteRecordSide(store, false, r)
}

// WriteRecordSide is WriteRecord with the two-stream side flag.
func (w *Writer) WriteRecordSide(store, right bool, r *record.Record) error {
	return w.WriteRecordTraced(store, right, r, 0, 0)
}

// WriteRecordTraced is WriteRecordSide carrying a trace context. A zero
// traceID writes the exact untraced v2 encoding — the annotation (flags
// bit 4 plus two trailing varints) exists on the wire only for sampled
// tuples, keeping the unsampled path byte-identical and branch-cheap.
func (w *Writer) WriteRecordTraced(store, right bool, r *record.Record, traceID uint64, parentSpan int) error {
	var flags byte
	if store {
		flags |= 1
	}
	if right {
		flags |= 2
	}
	if traceID != 0 {
		flags |= 4
	}
	w.buf = append(w.buf, flags)
	w.putUvarint(uint64(r.ID))
	w.putVarint(r.Time)
	w.putUvarint(uint64(len(r.Tokens)))
	prev := uint64(0)
	for _, t := range r.Tokens {
		w.putUvarint(uint64(t) - prev)
		prev = uint64(t)
	}
	if traceID != 0 {
		w.putUvarint(traceID)
		w.putVarint(int64(parentSpan))
	}
	return w.flushFrame(TypeRecord)
}

// WriteResult sends one verified pair.
func (w *Writer) WriteResult(res Result) error {
	w.putUvarint(uint64(res.A))
	w.putUvarint(uint64(res.B))
	w.putFloat(res.Sim)
	return w.flushFrame(TypeResult)
}

// WriteEOF signals end of stream.
func (w *Writer) WriteEOF() error {
	if err := w.flushFrame(TypeEOF); err != nil {
		return err
	}
	return w.Flush()
}

// WriteStats sends the worker's final counters.
func (w *Writer) WriteStats(s Stats) error {
	for _, v := range []uint64{s.Probes, s.Stored, s.Scanned, s.Candidates,
		s.Verified, s.Results, s.VerifySteps, s.Postings} {
		w.putUvarint(v)
	}
	if err := w.flushFrame(TypeStats); err != nil {
		return err
	}
	return w.Flush()
}

// WriteSnapshot sends an opaque checkpoint blob.
func (w *Writer) WriteSnapshot(blob []byte) error {
	w.buf = append(w.buf, blob...)
	if err := w.flushFrame(TypeSnapshot); err != nil {
		return err
	}
	return w.Flush()
}

// WriteSnapshotReq ends the record stream like WriteEOF but asks the
// worker to append its window snapshot after the stats frame.
func (w *Writer) WriteSnapshotReq() error {
	if err := w.flushFrame(TypeSnapshotReq); err != nil {
		return err
	}
	return w.Flush()
}

// WritePing sends a liveness probe and flushes it to the connection so the
// peer sees it immediately.
func (w *Writer) WritePing() error {
	if err := w.flushFrame(TypePing); err != nil {
		return err
	}
	return w.Flush()
}

// WritePong answers a ping; flushed like WritePing.
func (w *Writer) WritePong() error {
	if err := w.flushFrame(TypePong); err != nil {
		return err
	}
	return w.Flush()
}

// WriteResumeAck reports the restored stream cursor of a resuming session:
// nextID is the first record ID the worker has NOT yet seen (0 when no
// checkpoint was found). Flushed so the coordinator can start its replay
// without waiting for buffer pressure. This is the v2/v3 form; v4 workers
// answer with WriteResumeAckCredit instead.
func (w *Writer) WriteResumeAck(nextID uint64) error {
	w.putUvarint(nextID)
	if err := w.flushFrame(TypeResumeAck); err != nil {
		return err
	}
	return w.Flush()
}

// WriteResumeAckCredit is the v4 ResumeAck: the cursor plus the worker's
// initial record-credit window. The extra field is what tells the
// coordinator the worker speaks v4 and flow control is in effect.
func (w *Writer) WriteResumeAckCredit(nextID, credit uint64) error {
	w.putUvarint(nextID)
	w.putUvarint(credit)
	if err := w.flushFrame(TypeResumeAck); err != nil {
		return err
	}
	return w.Flush()
}

// WritePause sends the payload-free flow-control pause notice; flushed
// immediately like WritePing so pressure propagates without delay.
func (w *Writer) WritePause() error {
	if err := w.flushFrame(TypePause); err != nil {
		return err
	}
	return w.Flush()
}

// WriteResume lifts a pause; flushed like WritePause.
func (w *Writer) WriteResume() error {
	if err := w.flushFrame(TypeResume); err != nil {
		return err
	}
	return w.Flush()
}

// WriteCredit grants delta units of flow-control credit; flushed so the
// peer can act on it immediately.
func (w *Writer) WriteCredit(delta uint64) error {
	w.putUvarint(delta)
	if err := w.flushFrame(TypeCredit); err != nil {
		return err
	}
	return w.Flush()
}

// Flush drains the buffered writer to the connection.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader parses inbound frames. Not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
	// recs and ranks are the unused tails of the slabs ReadRecord decodes
	// into: one heap allocation per recChunk records and per rankChunk
	// ranks instead of two per record. A decoded record is never written
	// again, and a slab becomes garbage with the last record carved from
	// it.
	recs  []record.Record
	ranks []tokens.Rank
}

// Decode slab sizes. A record with more than rankChunk tokens gets a
// token slice of its own.
const (
	recChunk  = 256
	rankChunk = 8192
)

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Reset makes r read frames from src, discarding any buffered input. The
// decode slabs are kept, so records decoded before and after a Reset
// share them and a reader reused across many short inputs does not pay a
// slab per input.
func (r *Reader) Reset(src io.Reader) { r.r.Reset(src) }

// Next reads the next frame, returning its type and leaving the payload
// staged for the matching Read* call. io.EOF is returned at a clean
// connection end.
func (r *Reader) Next() (byte, error) {
	typ, err := r.r.ReadByte()
	if err != nil {
		return 0, err
	}
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, frameErr(err)
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, frameErr(err)
	}
	return typ, nil
}

// frameErr converts an EOF mid-frame into ErrUnexpectedEOF so that callers
// can distinguish clean stream end (io.EOF from Next's first byte) from a
// truncated frame.
func frameErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

type payload struct {
	b []byte
	i int
}

func (p *payload) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.i:])
	if n <= 0 {
		return 0, errors.New("wire: truncated uvarint")
	}
	p.i += n
	return v, nil
}

func (p *payload) varint() (int64, error) {
	v, n := binary.Varint(p.b[p.i:])
	if n <= 0 {
		return 0, errors.New("wire: truncated varint")
	}
	p.i += n
	return v, nil
}

func (p *payload) float() (float64, error) {
	if p.i+8 > len(p.b) {
		return 0, errors.New("wire: truncated float")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.i:]))
	p.i += 8
	return v, nil
}

func (p *payload) byte() (byte, error) {
	if p.i >= len(p.b) {
		return 0, errors.New("wire: truncated byte")
	}
	b := p.b[p.i]
	p.i++
	return b, nil
}

// ReadHello decodes a staged Hello frame.
func (r *Reader) ReadHello() (Hello, error) {
	p := payload{b: r.buf}
	var h Hello
	var err error
	get := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = p.uvarint()
		return v
	}
	h.Version = int(get())
	h.Task = int(get())
	h.Workers = int(get())
	h.Func = int(get())
	if err == nil {
		h.Threshold, err = p.float()
	}
	h.Algorithm = int(get())
	h.WindowKind = int(get())
	if err == nil {
		h.WindowN, err = p.varint()
	}
	h.Strategy = int(get())
	nb := int(get())
	if err != nil {
		return h, err
	}
	if nb < 0 || nb > 1<<20 {
		return h, fmt.Errorf("wire: absurd bounds count %d", nb)
	}
	h.Bounds = make([]int, nb)
	for i := range h.Bounds {
		h.Bounds[i] = int(get())
	}
	if err == nil {
		h.GroupThreshold, err = p.float()
	}
	h.MaxMembers = int(get())
	if err != nil {
		return h, err
	}
	ob, err := p.byte()
	if err != nil {
		return h, err
	}
	h.OneByOne = ob&1 != 0
	h.Bi = ob&2 != 0
	h.FT = ob&4 != 0
	h.Resume = ob&8 != 0
	h.Durable = ob&16 != 0
	if h.SessionID, err = p.uvarint(); err != nil {
		return h, err
	}
	if h.Version < MinVersion || h.Version > Version {
		return h, fmt.Errorf("wire: protocol version %d, want %d..%d", h.Version, MinVersion, Version)
	}
	if h.Version >= 4 {
		if h.PlanHash, err = p.uvarint(); err != nil {
			return h, err
		}
	}
	return h, nil
}

// ReadResumeAck decodes a staged ResumeAck frame into the worker's next
// expected record ID, ignoring the v4 credit field if present.
func (r *Reader) ReadResumeAck() (uint64, error) {
	p := payload{b: r.buf}
	return p.uvarint()
}

// ReadResumeAckCredit decodes a staged ResumeAck frame including the v4
// initial-credit field. hasCredit reports whether the field was present —
// false means the peer answered with the v2/v3 form and flow control is
// not in effect on this connection.
func (r *Reader) ReadResumeAckCredit() (nextID, credit uint64, hasCredit bool, err error) {
	p := payload{b: r.buf}
	if nextID, err = p.uvarint(); err != nil {
		return 0, 0, false, err
	}
	if p.i >= len(p.b) {
		return nextID, 0, false, nil
	}
	if credit, err = p.uvarint(); err != nil {
		return 0, 0, false, err
	}
	return nextID, credit, true, nil
}

// ReadCredit decodes a staged Credit frame's delta.
func (r *Reader) ReadCredit() (uint64, error) {
	p := payload{b: r.buf}
	return p.uvarint()
}

// ReadRecord decodes a staged Record frame. The record and its tokens
// are carved from the reader's slabs but belong to the caller: later
// reads never touch them, and appending to Tokens copies (cap == len).
// Slab refills amortize to no allocation per record
// (BenchmarkReadRecord).
func (r *Reader) ReadRecord() (Record, error) {
	p := payload{b: r.buf}
	st, err := p.byte()
	if err != nil {
		return Record{}, err
	}
	id, err := p.uvarint()
	if err != nil {
		return Record{}, err
	}
	t, err := p.varint()
	if err != nil {
		return Record{}, err
	}
	n, err := p.uvarint()
	if err != nil {
		return Record{}, err
	}
	if n > MaxFrame {
		return Record{}, fmt.Errorf("wire: absurd token count %d", n)
	}
	var toks []tokens.Rank
	switch {
	case n > rankChunk:
		toks = make([]tokens.Rank, n)
	case uint64(len(r.ranks)) < n:
		r.ranks = make([]tokens.Rank, rankChunk)
		fallthrough
	default:
		// Three-index slice: cap == len, so an append to one record's
		// tokens can never write into the next record's.
		toks = r.ranks[:n:n]
	}
	prev := uint64(0)
	for i := range toks {
		d, err := p.uvarint()
		if err != nil {
			return Record{}, err
		}
		prev += d
		if prev > math.MaxUint32 {
			return Record{}, fmt.Errorf("wire: token overflows rank: %d", prev)
		}
		toks[i] = tokens.Rank(prev)
	}
	rec := Record{Store: st&1 != 0, Right: st&2 != 0}
	if st&4 != 0 {
		if rec.TraceID, err = p.uvarint(); err != nil {
			return Record{}, err
		}
		ps, err := p.varint()
		if err != nil {
			return Record{}, err
		}
		rec.ParentSpan = int(ps)
	}
	// The frame decoded cleanly: only now do the ranks leave the slab, so
	// a failed decode leaves nothing behind but scratch the next record
	// overwrites.
	if n <= rankChunk {
		r.ranks = r.ranks[n:]
	}
	if len(r.recs) == 0 {
		r.recs = make([]record.Record, recChunk)
	}
	rec.Rec = &r.recs[0]
	r.recs = r.recs[1:]
	*rec.Rec = record.Record{ID: record.ID(id), Time: t, Tokens: toks}
	return rec, nil
}

// ReadResult decodes a staged Result frame.
func (r *Reader) ReadResult() (Result, error) {
	p := payload{b: r.buf}
	a, err := p.uvarint()
	if err != nil {
		return Result{}, err
	}
	b, err := p.uvarint()
	if err != nil {
		return Result{}, err
	}
	sim, err := p.float()
	if err != nil {
		return Result{}, err
	}
	return Result{A: record.ID(a), B: record.ID(b), Sim: sim}, nil
}

// ReadSnapshot returns a copy of a staged Snapshot frame's blob.
func (r *Reader) ReadSnapshot() []byte {
	return append([]byte(nil), r.buf...)
}

// ReadStats decodes a staged Stats frame.
func (r *Reader) ReadStats() (Stats, error) {
	p := payload{b: r.buf}
	var s Stats
	for _, dst := range []*uint64{&s.Probes, &s.Stored, &s.Scanned, &s.Candidates,
		&s.Verified, &s.Results, &s.VerifySteps, &s.Postings} {
		v, err := p.uvarint()
		if err != nil {
			return s, err
		}
		*dst = v
	}
	return s, nil
}
