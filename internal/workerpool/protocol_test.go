// White-box tests for the frame codec: round trips of single, batch and
// empty bodies, and garbage that must be rejected as errMalformed
// without a panic or an allocation beyond the frame cap.
package workerpool

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// encode writes f through writeFrame and returns the wire bytes.
func encode(t *testing.T, f *frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&buf), f); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return buf.Bytes()
}

// decode reads one frame from wire bytes.
func decode(wire []byte) (*frame, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(wire)))
}

// sameBodies reports whether two frames carry equal bodies slot by slot.
func sameBodies(a, b *frame) bool {
	ab, bb := a.bodies(), b.bodies()
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if !bytes.Equal(*ab[i], *bb[i]) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	diagram := []byte(`{"format":"dot","diagram":"digraph { a -> b [label=<x>] }"}`)
	cases := map[string]*frame{
		"ready":  {Ready: true},
		"single": {ID: 7, Req: &Request{Endpoint: "/v1/diagram", Header: map[string]string{"X-Request-ID": "r1"}, Body: []byte(`{"sql":"SELECT 1"}`)}},
		"empty":  {ID: 8, Req: &Request{Endpoint: "/v1/diagram"}},
		"batch": {ID: 9, Reqs: []*Request{
			{Endpoint: "/v1/diagram", Body: []byte("a")},
			{Endpoint: "/v1/interpret"},
			{Endpoint: "/v1/diagram", Body: []byte("ccc")},
		}},
		"response": {ID: 10, Resp: &Response{Status: 200, Header: map[string]string{"Content-Type": "application/json"},
			Body: diagram, Spans: []telemetry.Span{{Name: "worker"}}}},
		"batch response": {ID: 11, Resps: []*Response{{Status: 200, Body: diagram}, {Status: 422}}},
	}
	for name, f := range cases {
		wire := encode(t, f)
		got, err := decode(wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.ID != f.ID || got.Ready != f.Ready || !sameBodies(f, got) {
			t.Fatalf("%s: round trip changed the frame", name)
		}
		if f.Resp != nil && (got.Resp.Status != f.Resp.Status || len(got.Resp.Spans) != 1) {
			t.Fatalf("%s: response metadata lost", name)
		}
	}
	// The body travels as raw bytes, not base64 inside the metadata.
	wire := encode(t, cases["response"])
	if !bytes.Contains(wire, diagram) {
		t.Fatal("response body is not carried verbatim on the wire")
	}
}

func TestFrameRejectsMalformedPayloads(t *testing.T) {
	good := encode(t, &frame{ID: 1, Req: &Request{Endpoint: "/v1/diagram", Body: []byte("body")}})
	payload := good[4:]
	reframe := func(p []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(p)))
		return append(out, p...)
	}
	cases := map[string][]byte{
		"zero length":         {0, 0, 0, 0},
		"length over the cap": {0xff, 0xff, 0xff, 0xff, 'g', 'a', 'r', 'b'},
		"short payload":       reframe([]byte{0, 0}),
		"metadata overrun":    reframe(append([]byte{0, 0, 1, 0}, payload[4:]...)),
		"not json":            reframe(append([]byte{0, 0, 0, 3}, "abc"...)),
		"missing body":        reframe(payload[:len(payload)-8]),
		"stray bytes":         reframe(append(append([]byte(nil), payload...), 'x')),
	}
	for name, wire := range cases {
		if _, err := decode(wire); !errors.Is(err, errMalformed) {
			t.Errorf("%s: got %v, want errMalformed", name, err)
		}
	}
	if _, err := decode(nil); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

// FuzzFrame feeds arbitrary payloads to the decoder behind a valid
// length prefix and as a raw stream. A payload either decodes to a
// frame that re-encodes and decodes to the same bodies, or is rejected
// with errMalformed; nothing panics, and no input makes the decoder
// allocate more than one capped frame.
func FuzzFrame(f *testing.F) {
	seed := func(fr *frame) {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[4:])
	}
	seed(&frame{Ready: true})
	seed(&frame{ID: 1, Req: &Request{Endpoint: "/v1/diagram", Body: []byte(`{"sql":"SELECT 1"}`)}})
	seed(&frame{ID: 2, Reqs: []*Request{{Body: []byte("a")}, {}, {Body: []byte("b")}}})
	seed(&frame{ID: 3, Resps: []*Response{{Status: 200, Body: []byte("<svg/>")}, nil}})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrameBytes {
			return
		}
		wire := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		wire = append(wire, payload...)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := decode(wire)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrameBytes+1<<20 {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("complete frame rejected without errMalformed: %v", err)
			}
		} else {
			var buf bytes.Buffer
			if err := writeFrame(bufio.NewWriter(&buf), fr); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			again, err := decode(buf.Bytes())
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !sameBodies(fr, again) || again.ID != fr.ID {
				t.Fatal("re-encoded frame decodes differently")
			}
		}
		// The same bytes as a raw stream: any outcome but a panic.
		_, _ = decode(payload)
	})
}
