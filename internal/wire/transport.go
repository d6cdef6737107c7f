package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wallclock"
)

// Config parameterizes a TCP transport.
type Config struct {
	// N is the cluster size (required, ≥ 1).
	N int
	// Local lists the process ids this transport hosts (required, at
	// least one). Messages to local ids are delivered in-process;
	// messages to the rest are framed onto per-edge TCP connections.
	Local []int
	// Listen is the TCP listen address. Default "127.0.0.1:0" (loopback,
	// kernel-chosen port — read it back with Addr).
	Listen string
	// Codec selects the frame encoding for *outgoing* connections:
	// Version (1, the default) or Version2 (compact varint frames,
	// announced per connection with a preamble). Inbound connections
	// always auto-detect, so mixed-codec clusters interoperate.
	Codec int
	// DialBackoffMin/Max bound the exponential reconnect backoff.
	// Defaults 20ms / 2s.
	DialBackoffMin, DialBackoffMax time.Duration
	// Obs, when non-nil, receives wire metrics (all goroutine-safe).
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Codec == 0 {
		c.Codec = Version
	}
	if c.DialBackoffMin <= 0 {
		c.DialBackoffMin = 20 * time.Millisecond
	}
	if c.DialBackoffMax < c.DialBackoffMin {
		c.DialBackoffMax = 2 * time.Second
	}
	return c
}

// wireInstruments caches the transport's obs handles; nil fields (no
// observability) make every publish a no-op.
type wireInstruments struct {
	sent       *obs.Counter
	recv       *obs.Counter
	dropped    *obs.Counter
	dials      *obs.Counter
	dialErrors *obs.Counter
	connErrors *obs.Counter
	flushes    *obs.Counter
	bytesSent  *obs.Counter
	v2Conns    *obs.Counter
	batchSize  *obs.Histogram
}

func newWireInstruments(o *obs.Obs) wireInstruments {
	if o == nil {
		return wireInstruments{}
	}
	r := o.Registry()
	return wireInstruments{
		sent:       r.Counter("wire_msgs_sent_total", "messages framed onto TCP connections"),
		recv:       r.Counter("wire_msgs_recv_total", "messages deframed from TCP connections"),
		dropped:    r.Counter("wire_msgs_dropped_total", "messages dropped (unknown peer, no delivery callback, misrouted, or unencodable)"),
		dials:      r.Counter("wire_dials_total", "successful TCP dials"),
		dialErrors: r.Counter("wire_dial_errors_total", "failed TCP dial attempts"),
		connErrors: r.Counter("wire_conn_errors_total", "connection read/write errors (excluding clean close)"),
		flushes:    r.Counter("wire_flushes_total", "batched sender flushes (≈ write syscalls)"),
		bytesSent:  r.Counter("wire_bytes_sent_total", "frame bytes flushed onto TCP connections"),
		v2Conns:    r.Counter("wire_v2_conns_total", "inbound connections negotiated to the v2 codec"),
		batchSize:  r.Histogram("wire_batch_size", "messages per sender flush", []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}),
	}
}

// Transport carries TME messages over TCP: one framed connection per
// directed edge, established lazily and redialed with exponential backoff,
// so each edge is a FIFO stream exactly like the simulator's channels. It
// satisfies the runtime.Transport seam.
//
// Lifecycle: NewTransport listens immediately (Addr returns the bound
// address, useful with ":0"), SetPeers installs the dial addresses, Start
// installs the delivery callback and begins accepting, Close tears
// everything down.
type Transport struct {
	cfg   Config
	ln    net.Listener
	local []bool
	ins   wireInstruments

	// deliver and peers are read on every message by Send, the edge
	// senders, and every inbound reader, so both live behind atomic
	// pointers instead of the mutex: Start/SetPeers publish a fresh
	// value, hot paths Load without contention.
	deliver atomic.Pointer[func(dst int, m tme.Message)]
	peers   atomic.Pointer[[]string]

	// dial is the edge dialer, swappable by tests (backoff behaviour
	// under dial-succeeds-write-fails peers needs a deterministic conn).
	dial func(addr string) (net.Conn, error)

	mu     sync.Mutex
	edges  map[edgeKey]*outEdge  // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type edgeKey struct{ src, dst int }

// outEdge is one directed outgoing link: an unbounded FIFO queue drained
// by a sender goroutine that owns the edge's connection.
type outEdge struct {
	dst int
	q   *msgQueue
}

// NewTransport validates cfg and binds the listener.
func NewTransport(cfg Config) (*Transport, error) {
	if cfg.N < 1 || len(cfg.Local) == 0 {
		return nil, fmt.Errorf("wire: Config.N (%d) and Local are required", cfg.N)
	}
	cfg = cfg.withDefaults()
	if cfg.Codec != Version && cfg.Codec != Version2 {
		return nil, fmt.Errorf("wire: Config.Codec %d is not a known version (want %d or %d)", cfg.Codec, Version, Version2)
	}
	t := &Transport{
		cfg:   cfg,
		local: make([]bool, cfg.N),
		ins:   newWireInstruments(cfg.Obs),
		edges: make(map[edgeKey]*outEdge),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	t.dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
	peers := make([]string, cfg.N)
	t.peers.Store(&peers)
	for _, id := range cfg.Local {
		if id < 0 || id >= cfg.N {
			return nil, fmt.Errorf("wire: Config.Local id %d out of range [0,%d)", id, cfg.N)
		}
		t.local[id] = true
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Listen, err)
	}
	t.ln = ln
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeers installs the dial address of every process id (entries for
// local ids are ignored). May be called again to repoint edges; the next
// (re)dial uses the new address.
func (t *Transport) SetPeers(addrs []string) {
	peers := make([]string, t.cfg.N)
	copy(peers, addrs)
	t.peers.Store(&peers)
}

// Start installs the delivery callback and begins accepting inbound
// connections. Part of the runtime.Transport contract.
func (t *Transport) Start(deliver func(dst int, m tme.Message)) {
	if deliver != nil {
		t.deliver.Store(&deliver)
	}
	t.wg.Add(1)
	//gblint:ignore determinism the TCP transport runs on real sockets; determinism is the simulator's job
	go t.acceptLoop()
}

// Send routes m: local destinations deliver in-process, remote ones go to
// the (lazily created) edge sender. Never blocks on the network.
func (t *Transport) Send(m tme.Message) {
	if m.To < 0 || m.To >= t.cfg.N {
		t.ins.dropped.Inc()
		return
	}
	if t.local[m.To] {
		d := t.deliver.Load()
		if d == nil {
			t.ins.dropped.Inc()
			return
		}
		(*d)(m.To, m)
		return
	}
	e := t.edge(m.From, m.To)
	if e == nil {
		t.ins.dropped.Inc()
		return
	}
	e.q.put(m)
}

// edge returns the sender for (src,dst), creating it on first use.
func (t *Transport) edge(src, dst int) *outEdge {
	k := edgeKey{src, dst}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if e, ok := t.edges[k]; ok {
		return e
	}
	e := &outEdge{dst: dst, q: newMsgQueue()}
	t.edges[k] = e
	t.wg.Add(1)
	//gblint:ignore determinism one sender goroutine per TCP edge owns its connection, so a slow peer stalls only its own edge
	go t.sender(e)
	return e
}

// Close stops accepting, closes every connection, and joins all transport
// goroutines. Part of the runtime.Transport contract.
func (t *Transport) Close() error {
	t.once.Do(func() {
		// Local destinations are delivered on the sender's goroutine, which
		// Close cannot join (an in-process cluster's chaos proxy releases
		// into this transport until the proxy closes too): withdrawing the
		// callback is what keeps a Send made after Close from delivering.
		t.deliver.Store(nil)
		t.mu.Lock()
		t.closed = true
		for c := range t.conns {
			_ = c.Close()
		}
		t.mu.Unlock()
		close(t.stop)
		_ = t.ln.Close()
	})
	t.wg.Wait()
	return nil
}

func (t *Transport) track(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *Transport) untrack(c net.Conn) {
	_ = c.Close()
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

func (t *Transport) peerAddr(id int) string {
	return (*t.peers.Load())[id]
}

// acceptLoop owns the listener.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		if !t.track(c) {
			return
		}
		t.wg.Add(1)
		//gblint:ignore determinism one reader goroutine per inbound TCP connection
		go t.serveConn(c)
	}
}

// serveConn deframes one inbound connection until error or close. The
// whole stream goes through one buffered reader, so a frame costs a
// buffer copy, not a syscall; the codec version is negotiated once from
// the connection preamble (v2 announces itself, anything else is v1). A
// malformed frame loses stream framing, so the connection is dropped
// (the peer redials).
func (t *Transport) serveConn(c net.Conn) {
	defer t.wg.Done()
	defer t.untrack(c)
	br := bufio.NewReaderSize(c, connBufSize)
	var r1 *Reader
	var r2 *V2Reader
	if sniffV2(br) {
		t.ins.v2Conns.Inc()
		r2 = NewV2Reader(br)
	} else {
		r1 = NewReader(br)
	}
	for {
		var m tme.Message
		var err error
		if r2 != nil {
			m, err = r2.ReadMessage()
		} else {
			m, err = r1.ReadMessage()
		}
		if err != nil {
			if err != io.EOF {
				t.ins.connErrors.Inc()
			}
			return
		}
		t.ins.recv.Inc()
		if m.To < 0 || m.To >= t.cfg.N || !t.local[m.To] {
			t.ins.dropped.Inc()
			continue
		}
		d := t.deliver.Load()
		if d == nil {
			t.ins.dropped.Inc()
			continue
		}
		(*d)(m.To, m)
	}
}

// sniffV2 reports whether the connection opens with the v2 preamble,
// consuming it when present. Any other prefix (including a short or
// already-EOF stream) leaves the reader untouched for the v1 deframer.
func sniffV2(br *bufio.Reader) bool {
	pre, err := br.Peek(len(v2Preamble))
	if err != nil || string(pre) != v2Preamble {
		return false
	}
	_, _ = br.Discard(len(v2Preamble))
	return true
}

// Retained-buffer bounds for the per-edge sender: a burst may grow the
// pending batch and frame buffer arbitrarily, but between drain turns the
// sender keeps at most this much, so one spike does not pin memory for
// the life of the edge.
const (
	connBufSize      = 64 << 10
	maxRetainedMsgs  = 16 << 10
	maxRetainedBytes = 1 << 20
)

// sender drains one edge in FIFO order, batching: every message queued at
// drain time is encoded into one pooled frame buffer and flushed with a
// single write, so the syscall and lock cost is per *batch*, not per
// message. Messages drained but not yet flushed are retried across
// redials (with exponential backoff), so a crashed-and-restarted peer
// picks the stream back up; unsendable messages only die with the
// transport. The backoff resets only after a successful flush — a peer
// that accepts dials and immediately resets cannot hold the sender in a
// tight dial loop.
func (t *Transport) sender(e *outEdge) {
	defer t.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	var enc *V2Encoder // nil on v1 connections
	var pending []tme.Message
	var frames []byte
	dropConn := func() {
		if conn != nil {
			t.untrack(conn)
			conn, bw, enc = nil, nil, nil
		}
	}
	defer dropConn()
	backoff := t.cfg.DialBackoffMin
	for {
		if len(pending) == 0 {
			var ok bool
			pending, ok = e.q.drain(t.stop, pending[:0])
			if !ok {
				return
			}
		}
		if conn == nil {
			addr := t.peerAddr(e.dst)
			if addr == "" {
				// Peer address not yet known: wait and retry, the
				// queue keeps FIFO order in the meantime.
				if !sleepUntil(t.stop, backoff) {
					return
				}
				backoff = nextBackoff(backoff, t.cfg.DialBackoffMax)
				continue
			}
			c, err := t.dial(addr)
			if err != nil {
				t.ins.dialErrors.Inc()
				if !sleepUntil(t.stop, backoff) {
					return
				}
				backoff = nextBackoff(backoff, t.cfg.DialBackoffMax)
				continue
			}
			if !t.track(c) {
				return
			}
			t.ins.dials.Inc()
			conn, bw = c, bufio.NewWriterSize(c, connBufSize)
			if t.cfg.Codec == Version2 {
				// Announce v2 for this connection; the encoder state
				// (clock delta, intern table) starts fresh on both ends.
				enc = NewV2Encoder()
				_, _ = bw.WriteString(v2Preamble)
			}
		}
		var err error
		frames, pending, err = t.encodeBatch(frames[:0], pending, enc)
		if err == nil {
			if len(frames) > 0 {
				_, err = bw.Write(frames)
			}
			if err == nil {
				err = bw.Flush()
			}
		}
		if err != nil {
			t.ins.connErrors.Inc()
			dropConn()
			// The pending batch is retried on the next connection; back
			// off first so a peer that resets straight after accepting
			// is still dialed at the backed-off cadence.
			if !sleepUntil(t.stop, backoff) {
				return
			}
			backoff = nextBackoff(backoff, t.cfg.DialBackoffMax)
			continue
		}
		t.ins.sent.Add(int64(len(pending)))
		t.ins.flushes.Inc()
		t.ins.bytesSent.Add(int64(len(frames)))
		t.ins.batchSize.Observe(int64(len(pending)))
		pending = pending[:0]
		backoff = t.cfg.DialBackoffMin
		if cap(pending) > maxRetainedMsgs {
			pending = nil
		}
		if cap(frames) > maxRetainedBytes {
			frames = nil
		}
	}
}

// encodeBatch appends the frames for every message of batch to dst using
// enc (nil = v1 codec). Unencodable messages (fields outside the wire
// shape) are dropped from the batch — they could never be sent on any
// connection — and the surviving batch is returned; an error return means
// nothing was appended beyond the already-encoded prefix and the caller
// must treat the connection as poisoned (cannot happen today: both codecs
// only fail per message).
func (t *Transport) encodeBatch(dst []byte, batch []tme.Message, enc *V2Encoder) ([]byte, []tme.Message, error) {
	kept := batch[:0]
	for _, m := range batch {
		var b []byte
		var err error
		if enc != nil {
			b, err = enc.AppendFrame(dst, m)
		} else {
			b, err = AppendFrame(dst, m)
		}
		if err != nil {
			t.ins.dropped.Inc()
			continue
		}
		dst = b
		kept = append(kept, m)
	}
	return dst, kept, nil
}

// sleepUntil waits d or until stop closes; false means stop. It is the
// dial backoff's wait, off the hot path, so it opens a timer per call.
func sleepUntil(stop <-chan struct{}, d time.Duration) bool {
	timer := wallclock.NewTimer()
	defer timer.Close()
	return timer.Sleep(stop, d)
}

func nextBackoff(cur, max time.Duration) time.Duration {
	cur *= 2
	if cur > max {
		return max
	}
	return cur
}

// msgQueue is an unbounded FIFO with blocking drain — the wire-side twin
// of the runtime's mailbox (which this package cannot import). A drain
// takes every queued message at once, so storage is one slice refilled
// from its start: steady-state put/drain never allocate, and capacity grows
// only when the queue outpaces its consumer and is reused forever after.
type msgQueue struct {
	mu     sync.Mutex
	buf    []tme.Message // guarded by mu; the queued messages, oldest first
	signal chan struct{} // capacity 1: "items may be non-empty"
}

func newMsgQueue() *msgQueue {
	return &msgQueue{signal: make(chan struct{}, 1)}
}

func (q *msgQueue) put(m tme.Message) {
	q.mu.Lock()
	q.buf = append(q.buf, m)
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// drain appends every queued message to dst in FIFO order under one lock
// acquisition, blocking until at least one is available or stop closes.
func (q *msgQueue) drain(stop <-chan struct{}, dst []tme.Message) ([]tme.Message, bool) {
	for {
		q.mu.Lock()
		if len(q.buf) > 0 {
			dst = append(dst, q.buf...)
			q.buf = q.buf[:0]
			q.mu.Unlock()
			return dst, true
		}
		q.mu.Unlock()
		select {
		case <-q.signal:
		case <-stop:
			return dst, false
		}
	}
}

func (q *msgQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// capacity reports the queue's current storage size (for reuse tests).
func (q *msgQueue) capacity() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return cap(q.buf)
}
