// Package workerpool runs diagram compilation in a pool of child
// processes so that one pathological query — stack exhaustion, runaway
// heap, an unforeseen panic path — kills a worker, never the daemon.
//
// The supervisor (Pool) dispatches each request to an idle worker over a
// length-prefixed frame protocol on the child's stdin/stdout, with a hard
// wall-clock deadline and an RSS ceiling enforced by a /proc watchdog. A
// worker that crashes, wedges, overruns, or corrupts its pipe is
// SIGKILLed and respawned with exponential backoff plus jitter; its
// request is transparently retried once on a fresh worker before a typed
// *WorkerError surfaces. Workers are also recycled after a request count
// or an RSS growth bound — recycling is deliberately the same code path
// as crash recovery (crash-only design), so the recovery path is
// exercised continuously, not only on disaster.
//
// Wire protocol, both directions: a 4-byte big-endian frame length
// followed by that many payload bytes. The payload is a 4-byte length
// and the frame's JSON metadata (IDs, endpoints, headers, trace spans),
// then one length-prefixed raw body per request or response the frame
// carries, in frame order. Bodies are JSON documents in their own right;
// carrying them as raw bytes rather than base64 inside the metadata
// spares a third of their size and an encode/decode pass on both sides
// of the pipe. The worker answers every request
// frame with exactly one response frame carrying the same ID, and sends
// one ready frame (ID 0) at startup so the supervisor can distinguish a
// live child from one that died during initialization. The frame size is
// capped: a corrupt length prefix is detected as a protocol error, not
// an attempted multi-gigabyte allocation.
//
// A request frame carries either one Request (Req) or a batch of them
// (Reqs): the supervisor coalesces queued dispatches into one frame to
// amortize pipe syscalls and scheduler wakeups across the batch. The
// worker serves batch items sequentially and answers with a single
// response frame whose Resps aligns index-for-index with Reqs — so a
// worker that crashes mid-batch has answered nothing (the reply is
// buffered until complete), and the supervisor can safely re-dispatch
// every item without ever delivering a response twice.
package workerpool

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// MaxFrameBytes caps a single protocol frame in either direction.
// Rendered outputs are bounded by queryvis.Limits.MaxOutputBytes (1 MiB
// by default) and request bodies by the server's body cap, so 16 MiB is
// far above anything legitimate while still rejecting garbage length
// prefixes immediately.
const MaxFrameBytes = 16 << 20

// Request is one unit of work dispatched to a worker: an opaque HTTP
// request body for one of the service's POST endpoints. The supervisor
// does not interpret the body — parsing adversarial input is exactly
// what must happen inside the sacrificial child.
type Request struct {
	// Endpoint is the API route the body targets ("/v1/diagram" or
	// "/v1/interpret").
	Endpoint string `json:"endpoint"`
	// Header carries the allow-listed request headers the worker needs
	// (request ID, fault-injection seeds).
	Header map[string]string `json:"header,omitempty"`
	// Body is the raw JSON request body. It travels after the frame's
	// JSON metadata as raw bytes, never inside it.
	Body []byte `json:"-"`
}

// Response is the worker's verbatim answer: the status, headers, and
// body its in-process handler produced. The supervisor copies it through
// to the client untouched, so process isolation cannot change the wire
// contract.
type Response struct {
	Status int               `json:"status"`
	Header map[string]string `json:"header,omitempty"`
	// Body travels as raw bytes after the frame metadata, like
	// Request.Body.
	Body []byte `json:"-"`
	// Spans are the worker-side trace spans for this request, recorded
	// when the request carried a sampled telemetry.TraceHeader. In a
	// batch frame each Response carries its own passenger's spans. The
	// parent merges them into the request's trace tree; they never reach
	// the client body.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// frame is the on-pipe envelope for both directions. Requests populate
// Req (single) or Reqs (batch); responses populate Resp or Resps to
// match. ID matches a response frame to its request frame — a mismatch
// means the pipe carries garbage and the worker is retired.
type frame struct {
	ID   uint64    `json:"id"`
	Req  *Request  `json:"req,omitempty"`
	Resp *Response `json:"resp,omitempty"`
	// Reqs is a coalesced batch; the response frame's Resps must align
	// index-for-index.
	Reqs  []*Request  `json:"reqs,omitempty"`
	Resps []*Response `json:"resps,omitempty"`
	// Ready marks the worker's startup frame (ID 0).
	Ready bool `json:"ready,omitempty"`
}

// bodies lists the frame's body slots in wire order: the single
// request, the batch requests, the single response, then the batch
// responses. Nil items carry no body (and no slot) on either side.
func (f *frame) bodies() []*[]byte {
	var out []*[]byte
	if f.Req != nil {
		out = append(out, &f.Req.Body)
	}
	for _, r := range f.Reqs {
		if r != nil {
			out = append(out, &r.Body)
		}
	}
	if f.Resp != nil {
		out = append(out, &f.Resp.Body)
	}
	for _, r := range f.Resps {
		if r != nil {
			out = append(out, &r.Body)
		}
	}
	return out
}

// writeFrame encodes f with its length prefix and flushes.
func writeFrame(w *bufio.Writer, f *frame) error {
	meta, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("workerpool: encode frame: %w", err)
	}
	bodies := f.bodies()
	n := 4 + len(meta)
	for _, b := range bodies {
		n += 4 + len(*b)
	}
	if n > MaxFrameBytes {
		return fmt.Errorf("workerpool: frame of %d bytes exceeds cap %d", n, MaxFrameBytes)
	}
	if err := writeLen(w, n); err != nil {
		return err
	}
	if err := writeLen(w, len(meta)); err != nil {
		return err
	}
	if _, err := w.Write(meta); err != nil {
		return err
	}
	for _, b := range bodies {
		if err := writeLen(w, len(*b)); err != nil {
			return err
		}
		if _, err := w.Write(*b); err != nil {
			return err
		}
	}
	return w.Flush()
}

func writeLen(w *bufio.Writer, n int) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	_, err := w.Write(hdr[:])
	return err
}

// readFrame decodes the next length-prefixed frame. io.EOF is returned
// verbatim on a clean end-of-stream (nothing read); an out-of-range
// length prefix or an undecodable payload wraps errMalformed, and a
// stream cut short mid-frame is a plain read error. Decoded bodies alias
// the frame's one payload buffer; nothing is allocated from a length
// field inside the payload.
func readFrame(r *bufio.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("workerpool: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("workerpool: frame length %d out of range (garbage on the pipe?): %w", n, errMalformed)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("workerpool: read frame body: %w", err)
	}
	return decodeFrame(data)
}

// decodeFrame splits one frame payload into its metadata and bodies.
func decodeFrame(data []byte) (*frame, error) {
	meta, rest, ok := cut(data)
	if !ok {
		return nil, fmt.Errorf("workerpool: frame metadata overruns the payload: %w", errMalformed)
	}
	f := &frame{}
	if err := json.Unmarshal(meta, f); err != nil {
		return nil, fmt.Errorf("workerpool: decode frame (%w): %v", errMalformed, err)
	}
	for i, b := range f.bodies() {
		var body []byte
		if body, rest, ok = cut(rest); !ok {
			return nil, fmt.Errorf("workerpool: frame body %d overruns the payload: %w", i, errMalformed)
		}
		if len(body) > 0 {
			*b = body
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("workerpool: %d stray bytes after the frame bodies: %w", len(rest), errMalformed)
	}
	return f, nil
}

// cut splits a 4-byte length-prefixed chunk off the front of data.
func cut(data []byte) (chunk, rest []byte, ok bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	if uint64(n) > uint64(len(data)) {
		return nil, nil, false
	}
	return data[:n:n], data[n:], true
}
