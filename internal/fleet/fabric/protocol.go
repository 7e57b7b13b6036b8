package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"securadio/internal/fleet"
	"securadio/internal/frame"
)

// The wire protocol: line-delimited JSON messages over any byte stream
// (subprocess stdin/stdout pipes, TCP connections). The worker announces
// itself with a hello, the coordinator issues one lease at a time, and
// the worker answers each lease with exactly one result or fail message;
// the coordinator closing its end (pipe or socket EOF) is the shutdown
// signal. Messages are decoded with the same strictness as scenario
// files and sweep reports — unknown fields and trailing data within a
// line are rejected — so a version-skewed or corrupted peer fails
// loudly instead of silently mis-executing cells. Lines are capped at
// frame.MaxLine bytes, so a peer that never sends a newline cannot grow
// the reader without bound.
const protocolVersion = 1

// Message types.
const (
	msgHello  = "hello"  // worker -> coordinator, once, on attach
	msgLease  = "lease"  // coordinator -> worker: run this cell campaign
	msgResult = "result" // worker -> coordinator: the cell's aggregate
	msgFail   = "fail"   // worker -> coordinator: the cell failed to run
)

// message is the single wire frame. ID carries the lease's cell index
// (grid index for cartesian sweeps, axis value for adaptive ones) and is
// echoed back by the worker, making the request/response pairing
// explicit.
type message struct {
	V         int              `json:"v"`
	Type      string           `json:"type"`
	ID        int              `json:"id"`
	Campaign  *fleet.Campaign  `json:"campaign,omitempty"`
	Aggregate *fleet.Aggregate `json:"aggregate,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// decodeStrict unmarshals one record with the repo's loader discipline:
// unknown fields and trailing data are errors, not surprises.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after the record")
	}
	return nil
}

// lineCodec frames messages as one JSON object per newline-terminated
// line. It is not concurrency-safe; each worker session owns exactly one.
type lineCodec struct {
	r *frame.Reader
	w io.Writer
}

// newLineCodec frames messages over r and w; peer names the other end
// in read errors.
func newLineCodec(peer string, r io.Reader, w io.Writer) *lineCodec {
	return &lineCodec{r: frame.NewReader(r, frame.MaxLine, peer), w: w}
}

// send writes one message as a single line. The line is assembled first
// and written in one call, so a crash mid-send leaves at most one
// unterminated partial line for the peer's reader to reject.
func (c *lineCodec) send(m message) error {
	blob, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = c.w.Write(append(blob, '\n'))
	return err
}

// recv reads the next message. A clean EOF at a line boundary is
// returned as io.EOF (the peer shut down); bytes without a terminating
// newline are a protocol error, as is a line over frame.MaxLine bytes.
func (c *lineCodec) recv() (message, error) {
	line, err := c.r.ReadLine()
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return message{}, io.EOF
		}
		if err == io.EOF {
			return message{}, fmt.Errorf("fabric: connection closed mid-message (%d unterminated bytes)", len(line))
		}
		return message{}, err
	}
	var m message
	if err := decodeStrict(line, &m); err != nil {
		return message{}, fmt.Errorf("fabric: bad message: %v", err)
	}
	if m.V != protocolVersion {
		return message{}, fmt.Errorf("fabric: protocol version %d, want %d", m.V, protocolVersion)
	}
	return m, nil
}

// canonical returns an aggregate's canonical JSON bytes — the payload
// identity used for duplicate-completion resolution: byte-equal payloads
// are the same completion, anything else is a determinism violation.
func canonical(agg *fleet.Aggregate) []byte {
	blob, err := json.Marshal(agg)
	if err != nil {
		// Aggregates marshal by construction; an error here is a bug.
		panic(fmt.Sprintf("fabric: aggregate marshal: %v", err))
	}
	return blob
}
