package fabric

import (
	"context"
	"fmt"
	"io"
	"net"

	"securadio/internal/fleet"
)

// ServeWorker runs the worker half of the fabric protocol over an
// arbitrary byte stream: announce with a hello, then loop — receive a
// lease, execute its cell campaign to a finalized aggregate, answer with
// a result (or a fail carrying the validation error). The campaign fans
// its runs across the worker's own cores exactly as a local `fleetsim
// sweep` would, so a cell's aggregate bytes do not depend on which
// process computed them.
//
// ServeWorker returns nil when the coordinator closes its end (EOF at a
// line boundary) and ctx's error when cancelled mid-cell.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	c := newLineCodec("coordinator", r, w)
	if err := c.send(message{V: protocolVersion, Type: msgHello}); err != nil {
		return err
	}
	for {
		m, err := c.recv()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if m.Type != msgLease || m.Campaign == nil {
			return fmt.Errorf("fabric: worker received %q message, want a lease", m.Type)
		}
		agg, err := fleet.Run(ctx, *m.Campaign)
		if err != nil {
			if ctx.Err() != nil {
				// A partial cell must never reach the coordinator: its
				// aggregate would differ from the deterministic bytes.
				return ctx.Err()
			}
			if serr := c.send(message{V: protocolVersion, Type: msgFail, ID: m.ID, Error: err.Error()}); serr != nil {
				return serr
			}
			continue
		}
		if err := c.send(message{V: protocolVersion, Type: msgResult, ID: m.ID, Aggregate: agg}); err != nil {
			return err
		}
	}
}

// DialWorker connects to a coordinator's listen address over TCP and
// serves leases until the coordinator hangs up. Cancelling ctx closes
// the connection, unblocking any pending read.
func DialWorker(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	err = ServeWorker(ctx, conn, conn)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}
