package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"securadio/internal/frame"
)

// fuzzFrameCap is the line cap FuzzDecodeFrame reads under: small enough
// that fuzzed inputs cross it, so the bound is exercised alongside the
// decoder.
const fuzzFrameCap = 512

// FuzzDecodeFrame feeds arbitrary bytes to the wire-protocol reader, as
// a hostile or corrupted peer would. Properties: the reader never
// panics; every message it accepts carries the protocol version, came
// from a line within the cap, and survives a send/recv round trip
// unchanged; and a line over the cap fails with frame.ErrTooLong. The
// seed corpus in testdata/fuzz/FuzzDecodeFrame holds every message type
// (a real lease and result among them) and each rejection path.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &lineCodec{r: frame.NewReader(bytes.NewReader(data), fuzzFrameCap, "fuzz peer")}
		offset := 0
		for {
			m, err := c.recv()
			if err != nil {
				if errors.Is(err, frame.ErrTooLong) {
					if i := bytes.IndexByte(data[offset:], '\n'); i >= 0 && i < fuzzFrameCap {
						t.Fatalf("ErrTooLong on a %d-byte line", i+1)
					}
				}
				return
			}
			line := data[offset:]
			n := bytes.IndexByte(line, '\n') + 1
			if n == 0 || n > fuzzFrameCap {
				t.Fatalf("accepted a message from a %d-byte line (cap %d)", n, fuzzFrameCap)
			}
			offset += n
			if m.V != protocolVersion {
				t.Fatalf("accepted protocol version %d", m.V)
			}
			roundTrip(t, m)
		}
	})
}

// roundTrip sends m through a codec and reads it back, demanding the
// same message.
func roundTrip(t *testing.T, m message) {
	t.Helper()
	var buf bytes.Buffer
	w := newLineCodec("loop", &buf, &buf)
	if err := w.send(m); err != nil {
		t.Fatalf("accepted message does not re-encode: %v", err)
	}
	back, err := w.recv()
	if err != nil {
		t.Fatalf("re-encoded message does not decode: %v\n%s", err, buf.Bytes())
	}
	want, _ := json.Marshal(m)
	got, _ := json.Marshal(back)
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip changed the message:\n got %s\nwant %s", got, want)
	}
	if _, err := w.recv(); err != io.EOF {
		t.Fatalf("round trip left data behind: %v", err)
	}
}
