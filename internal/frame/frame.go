// Package frame reads newline-delimited frames from untrusted peers
// with a hard size cap. The fabric wire protocol and the testnet
// control plane both speak one JSON object per line over TCP or pipes;
// reading those lines with an unbounded bufio.Reader.ReadBytes lets one
// peer that never sends a newline grow the reader's memory without
// limit. Reader stops at the cap and names the peer in its error.
package frame

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// MaxLine is the default frame cap: far above any message the
// protocols send (a fabric aggregate or a testnet commit set at N in
// the thousands is tens of kilobytes), and small enough that a hostile
// peer cannot exhaust a coordinator's memory.
const MaxLine = 4 << 20

// ErrTooLong reports a frame that exceeded the reader's cap. The stream
// is desynchronized afterwards; the caller should drop the peer.
var ErrTooLong = errors.New("frame too long")

// Reader reads newline-terminated frames of at most max bytes,
// terminator included. It is not safe for concurrent use.
type Reader struct {
	br   *bufio.Reader
	max  int
	peer string
}

// NewReader returns a Reader over r that caps frames at max bytes and
// names peer in its errors.
func NewReader(r io.Reader, max int, peer string) *Reader {
	return &Reader{br: bufio.NewReader(r), max: max, peer: peer}
}

// ReadLine returns the next frame including its '\n' terminator, in a
// fresh slice the caller may keep. Like bufio.Reader.ReadBytes it
// returns the bytes read so far together with any read error (io.EOF
// for a stream that ends mid-frame or at a frame boundary). A frame
// longer than the cap fails with an error wrapping ErrTooLong that
// names the peer and the cap.
func (r *Reader) ReadLine() ([]byte, error) {
	var line []byte
	for {
		frag, err := r.br.ReadSlice('\n')
		if len(line)+len(frag) > r.max {
			return nil, fmt.Errorf("%w: %s sent more than %d bytes without a newline", ErrTooLong, r.peer, r.max)
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}
