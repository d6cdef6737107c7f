package runtime

import "github.com/graybox-stabilization/graybox/internal/tme"

// Transport is the seam between the node event loops and the medium that
// carries their messages: internal/wire's TCP transport, which delivers to
// its Local ids in-process, with or without the chaos proxy in front (see
// the package doc).
//
// The contract: Send never blocks indefinitely and preserves FIFO order
// per directed (From,To) edge; deliver is invoked from transport-owned
// goroutines, or inside Send for a local destination, and must be
// goroutine-safe and never block (the cluster's inboxes are unbounded);
// after Close returns no further deliver calls are made. Send after Close is a silent no-op.
type Transport interface {
	// Start installs the delivery callback and launches the transport's
	// goroutines. Called exactly once, before any Send.
	Start(deliver func(dst int, m tme.Message))
	// Send hands one message to the transport. The caller has already
	// validated From/To against the cluster size.
	Send(m tme.Message)
	// Close terminates the transport's goroutines and waits for them.
	Close() error
}
