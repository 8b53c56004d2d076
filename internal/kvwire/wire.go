// Package kvwire is the client/server wire protocol of the kv serving
// stack: a length-prefixed binary framing shared by cmd/kvserver and
// package kvclient.
//
// # Framing
//
// Every message — request or response — is one frame:
//
//	u32  length of the body, big-endian (1 ≤ length ≤ MaxFrame)
//	u8   opcode (request) or status (response)
//	...  opcode/status-specific payload
//
// Requests on one connection are answered strictly in order, one
// response per request, which is what makes pipelining work: a client
// may write any number of requests before reading the first response and
// match responses to requests by position alone.
//
// # Request payloads
//
//	OpPut    u16 klen, key, u32 vlen, value
//	OpGet    u16 klen, key [, flags tail]
//	OpDelete u16 klen, key
//	OpScan   u16 klen, start key (may be empty), u32 limit (≤ MaxScan)
//	         [, flags tail]
//	OpTxn    u16 n, then n times: u8 kind (0 put, 1 delete),
//	         u16 klen, key, and for puts u32 vlen, value
//	OpStats  empty
//	OpPing   empty
//	OpMetrics empty
//
// # Read flags tail
//
// OpGet and OpScan accept an optional trailing extension: one flags byte
// followed by the blocks the set bits announce, in bit order. A frame
// ending at the base payload means flags 0 — every frame an old client
// produces parses unchanged — and a flags byte with any bit this decoder
// does not know is rejected as malformed (ErrFrame), so an old server
// visibly refuses new-client extensions instead of silently ignoring
// their semantics. One bit is assigned:
//
//	FlagConsistency (bit 0): u8 read mode (ModePrimary..ModeQuorum),
//	u64 staleness bound, u8 token length n (≤ MaxTokenLen), n × u64
//	per-shard commit-sequence token.
//
// Clients only append the tail when a non-default read mode is in use:
// plain reads stay byte-identical to the pre-extension protocol in both
// directions.
//
// # Response payloads
//
//	StatusOK        Get: value. Scan: u32 n, then n × (u16 klen, key,
//	                u32 vlen, value). Stats: JSON-encoded Stats.
//	                Metrics: JSON-encoded obs.Snapshot (the deployment's
//	                merged metrics registry plus the server's own).
//	                Put/Delete/Txn: empty, or a commit token (u8 length
//	                n, n × u64) — the session floor for read-your-writes
//	                reads. Clients that don't track tokens ignore the
//	                body; old servers send none. Ping: empty.
//	StatusNotFound  empty (Get/Delete of an absent key)
//	StatusRetry     message — the serving deployment is failing over;
//	                the operation was not acknowledged and is safe to
//	                retry against the same address (on several shards it
//	                may have applied: a retried Delete may find no key)
//	StatusDegraded  message — the mutation is durable on the serving
//	                node but the configured acknowledgement discipline
//	                was not met (repro.ErrSafetyUnavailable)
//	StatusErr       message — terminal operation error (key too large,
//	                store full, ...); retrying the identical request
//	                will fail the same way
//	StatusBad       message — malformed frame; the server closes the
//	                connection after sending it
package kvwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame geometry limits. A frame declaring more than MaxFrame body bytes
// is rejected without buffering it — the first line of defense against
// garbage (a stray HTTP request's "GET " reads as a 1.2 GB length).
const (
	MaxFrame = 1 << 20 // largest frame body either side accepts
	MaxKey   = 1 << 10 // largest key the protocol carries
	MaxValue = 1 << 16 // largest value the protocol carries
	MaxScan  = 1 << 10 // largest scan limit
	MaxTxn   = 1 << 10 // most operations in one Txn frame
)

// Request opcodes.
const (
	OpPut byte = iota + 1
	OpGet
	OpDelete
	OpScan
	OpTxn
	OpStats
	OpPing
	OpMetrics
)

// Response status codes.
const (
	StatusOK byte = iota
	StatusNotFound
	StatusRetry
	StatusDegraded
	StatusErr
	StatusBad
)

// Txn operation kinds.
const (
	TxnPut    byte = 0
	TxnDelete byte = 1
)

// Read-flags tail bits (OpGet/OpScan). Unknown bits are rejected.
const (
	// FlagConsistency announces a consistency block: u8 mode, u64
	// staleness bound, u8 token length, n × u64 token.
	FlagConsistency byte = 1 << 0

	knownFlags = FlagConsistency
)

// Read modes carried in the consistency block. Values mirror the repro
// facade's ReadMode so the server forwards them without translation.
const (
	ModePrimary byte = iota
	ModeRYW
	ModeBounded
	ModeQuorum
)

// MaxTokenLen caps the per-shard commit token length carried on the
// wire — far above any real shard count, low enough that a garbage
// length byte cannot stage a large read.
const MaxTokenLen = 128

// ErrFrame reports a malformed frame or payload; the connection that
// produced it cannot be resynchronized and must be closed.
var ErrFrame = errors.New("kvwire: malformed frame")

// Op is one operation of a Txn request.
type Op struct {
	Kind byte // TxnPut or TxnDelete
	Key  []byte
	Val  []byte // TxnPut only
}

// Request is a decoded request frame. Key, Val and Ops alias the frame
// buffer — valid until the buffer is recycled. Token is owned by the
// Request and recycled across ParseRequest calls.
type Request struct {
	Op    byte
	Key   []byte
	Val   []byte
	Limit int  // OpScan
	Ops   []Op // OpTxn

	// Read consistency (OpGet/OpScan flags tail; zero values when the
	// frame carried none).
	Mode  byte     // ModePrimary..ModeQuorum
	Bound uint64   // bounded-staleness lag bound
	Token []uint64 // per-shard commit-sequence floor (nil = none)
}

// Stats is the server-state document an OpStats request returns,
// JSON-encoded in the response body.
type Stats struct {
	// Keys is the live key count of the served store.
	Keys int `json:"keys"`
	// Committed is the deployment's committed-transaction count.
	Committed uint64 `json:"committed"`
	// Conns is the number of currently open client connections.
	Conns int `json:"conns"`
	// Ops counts requests served since the server started.
	Ops uint64 `json:"ops"`
	// Retries counts StatusRetry responses sent (operations arriving
	// while the deployment was failing over).
	Retries uint64 `json:"retries"`
	// Reopens counts successful store heals (failover + Reopen).
	Reopens uint64 `json:"reopens"`
	// BadFrames counts malformed frames received.
	BadFrames uint64 `json:"bad_frames"`
	// Draining reports whether the server has begun its graceful drain.
	Draining bool `json:"draining"`
	// Shards is the number of replica groups serving the store (1 for an
	// unsharded deployment).
	Shards int `json:"shards"`
	// PlacementEpoch is the deployment's routing-table version: 1 at
	// construction, +1 at every elastic range cut-over.
	PlacementEpoch uint64 `json:"placement_epoch"`
}

// bufPool recycles frame buffers across requests and responses — the
// serving path's analogue of the facade's pooled redo encode buffers:
// steady-state request handling allocates no per-op buffers. It holds
// array pointers: a slice put in a Pool boxes its header, an allocation.
var bufPool = sync.Pool{New: func() any { return new([4096]byte) }}

// GetBuf returns a pooled zero-length buffer.
func GetBuf() []byte { return bufPool.Get().(*[4096]byte)[:0] }

// PutBuf recycles a buffer obtained from GetBuf. One grown past the pooled
// size (a large scan, a large value) is let go instead of pinned.
func PutBuf(b []byte) {
	if cap(b) == 4096 {
		bufPool.Put((*[4096]byte)(b[:4096]))
	}
}

// BeginFrame starts a frame in buf: the 4-byte length placeholder plus
// the opcode/status byte. Append the payload, then seal with EndFrame.
func BeginFrame(buf []byte, code byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, code)
}

// EndFrame seals a frame begun with BeginFrame by writing the body
// length into the placeholder.
func EndFrame(buf []byte) []byte {
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf
}

// appendU16 appends a big-endian u16 length word, which the limits above
// guarantee fits.
func appendU16(buf []byte, v int) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func appendU32(buf []byte, v int) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendConsistency appends the read-flags tail announcing a consistency
// block. Token lengths beyond MaxTokenLen are truncated: the floor loses
// precision only for shards past the cap, which the protocol does not
// serve anyway.
func appendConsistency(buf []byte, mode byte, bound uint64, token []uint64) []byte {
	buf = append(buf, FlagConsistency)
	buf = append(buf, mode)
	buf = appendU64(buf, bound)
	if len(token) > MaxTokenLen {
		token = token[:MaxTokenLen]
	}
	buf = append(buf, byte(len(token)))
	for _, t := range token {
		buf = appendU64(buf, t)
	}
	return buf
}

// AppendPut appends a sealed OpPut request frame to buf.
func AppendPut(buf, key, val []byte) []byte {
	buf = BeginFrame(buf, OpPut)
	buf = appendU16(buf, len(key))
	buf = append(buf, key...)
	buf = appendU32(buf, len(val))
	buf = append(buf, val...)
	return EndFrame(buf)
}

// AppendGet appends a sealed OpGet request frame to buf.
func AppendGet(buf, key []byte) []byte {
	buf = BeginFrame(buf, OpGet)
	buf = appendU16(buf, len(key))
	buf = append(buf, key...)
	return EndFrame(buf)
}

// AppendDelete appends a sealed OpDelete request frame to buf.
func AppendDelete(buf, key []byte) []byte {
	buf = BeginFrame(buf, OpDelete)
	buf = appendU16(buf, len(key))
	buf = append(buf, key...)
	return EndFrame(buf)
}

// AppendScan appends a sealed OpScan request frame to buf.
func AppendScan(buf, start []byte, limit int) []byte {
	buf = BeginFrame(buf, OpScan)
	buf = appendU16(buf, len(start))
	buf = append(buf, start...)
	buf = appendU32(buf, limit)
	return EndFrame(buf)
}

// AppendGetAt appends a sealed OpGet request frame carrying a
// consistency tail. Old servers reject the tail as trailing bytes and
// close the connection — send it only to servers that advertise (or are
// known to speak) the extension.
func AppendGetAt(buf, key []byte, mode byte, bound uint64, token []uint64) []byte {
	buf = BeginFrame(buf, OpGet)
	buf = appendU16(buf, len(key))
	buf = append(buf, key...)
	buf = appendConsistency(buf, mode, bound, token)
	return EndFrame(buf)
}

// AppendScanAt appends a sealed OpScan request frame carrying a
// consistency tail (see AppendGetAt for the compatibility caveat).
func AppendScanAt(buf, start []byte, limit int, mode byte, bound uint64, token []uint64) []byte {
	buf = BeginFrame(buf, OpScan)
	buf = appendU16(buf, len(start))
	buf = append(buf, start...)
	buf = appendU32(buf, limit)
	buf = appendConsistency(buf, mode, bound, token)
	return EndFrame(buf)
}

// AppendOKToken appends a sealed StatusOK response frame carrying a
// commit token (mutation responses). With an empty token it degrades to
// the classic empty-bodied OK.
func AppendOKToken(buf []byte, token []uint64) []byte {
	buf = BeginFrame(buf, StatusOK)
	if len(token) > 0 {
		if len(token) > MaxTokenLen {
			token = token[:MaxTokenLen]
		}
		buf = append(buf, byte(len(token)))
		for _, t := range token {
			buf = appendU64(buf, t)
		}
	}
	return EndFrame(buf)
}

// ParseTokenBody decodes a mutation StatusOK body into dst (reusing its
// capacity): a commit token when present, dst[:0] for the classic empty
// body (old servers).
func ParseTokenBody(body []byte, dst []uint64) ([]uint64, error) {
	dst = dst[:0]
	if len(body) == 0 {
		return dst, nil
	}
	r := reader{b: body}
	n, err := r.u8()
	if err != nil {
		return dst, err
	}
	if int(n) > MaxTokenLen {
		return dst, fmt.Errorf("%w: token of %d entries (max %d)", ErrFrame, n, MaxTokenLen)
	}
	for i := 0; i < int(n); i++ {
		v, err := r.u64()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	if r.off != len(body) {
		return dst, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(body)-r.off)
	}
	return dst, nil
}

// AppendTxn appends a sealed OpTxn request frame to buf.
func AppendTxn(buf []byte, ops []Op) []byte {
	buf = BeginFrame(buf, OpTxn)
	buf = appendU16(buf, len(ops))
	for _, op := range ops {
		buf = append(buf, op.Kind)
		buf = appendU16(buf, len(op.Key))
		buf = append(buf, op.Key...)
		if op.Kind == TxnPut {
			buf = appendU32(buf, len(op.Val))
			buf = append(buf, op.Val...)
		}
	}
	return EndFrame(buf)
}

// AppendEmpty appends a sealed payload-free frame (OpStats, OpPing, or
// an empty-bodied response status) to buf.
func AppendEmpty(buf []byte, code byte) []byte {
	return EndFrame(BeginFrame(buf, code))
}

// AppendMsg appends a sealed frame whose payload is a message string
// (the error-carrying response statuses).
func AppendMsg(buf []byte, code byte, msg string) []byte {
	buf = BeginFrame(buf, code)
	if len(msg) > 512 {
		msg = msg[:512]
	}
	buf = append(buf, msg...)
	return EndFrame(buf)
}

// ReadFrame reads one frame body (code byte included) from r into buf,
// growing it as needed, and returns the body. io.EOF surfaces unchanged
// when the stream ends cleanly between frames; a declared length outside
// (0, max] returns ErrFrame without consuming the body.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	// The prefix lands in buf: a local array would escape through r.
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return buf, fmt.Errorf("%w: truncated length prefix", ErrFrame)
		}
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n < 1 || n > max {
		return buf, fmt.Errorf("%w: declared body of %d bytes (max %d)", ErrFrame, n, max)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("%w: truncated body: %v", ErrFrame, err)
	}
	return buf, nil
}

// reader is a bounds-checked cursor over a frame body.
type reader struct {
	b   []byte
	off int
}

func (r *reader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, ErrFrame
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (int, error) {
	if r.off+2 > len(r.b) {
		return 0, ErrFrame
	}
	v := int(binary.BigEndian.Uint16(r.b[r.off:]))
	r.off += 2
	return v, nil
}

func (r *reader) u32() (int, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrFrame
	}
	v := int(binary.BigEndian.Uint32(r.b[r.off:]))
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, ErrFrame
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, ErrFrame
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

func (r *reader) key(max int) ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("%w: key of %d bytes (max %d)", ErrFrame, n, max)
	}
	return r.bytes(n)
}

func (r *reader) value() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxValue {
		return nil, fmt.Errorf("%w: value of %d bytes (max %d)", ErrFrame, n, MaxValue)
	}
	return r.bytes(n)
}

// ParseRequest decodes a request frame body into req. Every length is
// bounds-checked against the body and the protocol limits, so arbitrary
// garbage decodes to an error, never a panic or an out-of-range slice;
// trailing bytes after the payload are also rejected (a desynchronized
// peer should be disconnected, not humored). The decoded slices alias
// body.
func ParseRequest(body []byte, req *Request) error {
	tok := req.Token[:0:cap(req.Token)]
	*req = Request{Token: tok}
	r := reader{b: body}
	op, err := r.u8()
	if err != nil {
		return err
	}
	req.Op = op
	switch op {
	case OpPut:
		if req.Key, err = r.key(MaxKey); err != nil {
			return err
		}
		if req.Val, err = r.value(); err != nil {
			return err
		}
	case OpGet:
		if req.Key, err = r.key(MaxKey); err != nil {
			return err
		}
		if err = parseReadFlags(&r, req); err != nil {
			return err
		}
	case OpDelete:
		if req.Key, err = r.key(MaxKey); err != nil {
			return err
		}
	case OpScan:
		if req.Key, err = r.key(MaxKey); err != nil {
			return err
		}
		if req.Limit, err = r.u32(); err != nil {
			return err
		}
		if req.Limit > MaxScan {
			return fmt.Errorf("%w: scan limit %d (max %d)", ErrFrame, req.Limit, MaxScan)
		}
		if err = parseReadFlags(&r, req); err != nil {
			return err
		}
	case OpTxn:
		n, err := r.u16()
		if err != nil {
			return err
		}
		if n > MaxTxn {
			return fmt.Errorf("%w: txn of %d ops (max %d)", ErrFrame, n, MaxTxn)
		}
		req.Ops = make([]Op, 0, n)
		for i := 0; i < n; i++ {
			var o Op
			if o.Kind, err = r.u8(); err != nil {
				return err
			}
			if o.Kind != TxnPut && o.Kind != TxnDelete {
				return fmt.Errorf("%w: unknown txn op kind %d", ErrFrame, o.Kind)
			}
			if o.Key, err = r.key(MaxKey); err != nil {
				return err
			}
			if o.Kind == TxnPut {
				if o.Val, err = r.value(); err != nil {
					return err
				}
			}
			req.Ops = append(req.Ops, o)
		}
	case OpStats, OpPing, OpMetrics:
		// No payload.
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrFrame, op)
	}
	if r.off != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(body)-r.off)
	}
	return nil
}

// parseReadFlags decodes an OpGet/OpScan frame's optional flags tail. A
// frame ending at the base payload is flags 0 (old clients); unknown
// flag bits are malformed (old servers reject new extensions visibly).
func parseReadFlags(r *reader, req *Request) error {
	if r.off == len(r.b) {
		return nil
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	if flags&^knownFlags != 0 {
		return fmt.Errorf("%w: unknown read flags %#x", ErrFrame, flags&^knownFlags)
	}
	if flags&FlagConsistency != 0 {
		if req.Mode, err = r.u8(); err != nil {
			return err
		}
		if req.Mode > ModeQuorum {
			return fmt.Errorf("%w: unknown read mode %d", ErrFrame, req.Mode)
		}
		if req.Bound, err = r.u64(); err != nil {
			return err
		}
		n, err := r.u8()
		if err != nil {
			return err
		}
		if int(n) > MaxTokenLen {
			return fmt.Errorf("%w: token of %d entries (max %d)", ErrFrame, n, MaxTokenLen)
		}
		for i := 0; i < int(n); i++ {
			v, err := r.u64()
			if err != nil {
				return err
			}
			req.Token = append(req.Token, v)
		}
	}
	return nil
}

// Entry is one key/value pair of a scan response.
type Entry struct {
	Key []byte
	Val []byte
}

// AppendScanEntry appends one entry to an open StatusOK scan response
// whose count word was placed with appendU32; the server bumps the count
// in place via FinishScan.
func AppendScanEntry(buf, key, val []byte) []byte {
	buf = appendU16(buf, len(key))
	buf = append(buf, key...)
	buf = appendU32(buf, len(val))
	buf = append(buf, val...)
	return buf
}

// BeginScanResponse starts a StatusOK scan response, returning the buffer
// and the offset of its entry-count word.
func BeginScanResponse(buf []byte) ([]byte, int) {
	buf = BeginFrame(buf, StatusOK)
	off := len(buf)
	buf = appendU32(buf, 0)
	return buf, off
}

// FinishScanResponse seals a scan response: writes the entry count into
// its placeholder and the frame length into the header.
func FinishScanResponse(buf []byte, countOff, n int) []byte {
	binary.BigEndian.PutUint32(buf[countOff:], uint32(n))
	return EndFrame(buf)
}

// ParseScanBody decodes a StatusOK scan response body (status byte
// stripped) by calling fn for every entry; the slices alias body.
func ParseScanBody(body []byte, fn func(key, val []byte) error) error {
	r := reader{b: body}
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		key, err := r.key(MaxKey)
		if err != nil {
			return err
		}
		val, err := r.value()
		if err != nil {
			return err
		}
		if err := fn(key, val); err != nil {
			return err
		}
	}
	if r.off != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(body)-r.off)
	}
	return nil
}
