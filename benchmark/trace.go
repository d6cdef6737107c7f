package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wire"
)

// Where a timing link sits. A message passes atSend when the cluster hands
// it to its transport seam (the proxy's entrance), atWire when the proxy
// releases it to the TCP transport, and atDeliver when the destination's
// transport hands it to the destination cluster.
const (
	atSend uint8 = iota
	atWire
	atDeliver
)

// msgEvent is one message seen at one boundary.
type msgEvent struct {
	at uint8
	t  int64 // ns
	m  tme.Message
}

// entryRecord is what the client saw of one entry, timed round the public
// calls: RequestShard from t0 to t1, the entry notification at entered,
// ReleaseShard from r0 to r1. req is the request's REQ timestamp, read
// from the node's spec view straight after the request: the identifier
// every span of this entry shares.
type entryRecord struct {
	node                    int
	req                     ltime.Timestamp
	t0, t1, entered, r0, r1 int64
}

// tracer collects boundary events in memory during a traced run. Spans are
// built from them afterwards, so the run itself only pays an append under
// a mutex per boundary. All methods are no-ops on a nil receiver.
type tracer struct {
	mu      sync.Mutex
	msgs    []msgEvent
	entries []entryRecord
}

func (t *tracer) message(at uint8, m tme.Message) {
	if t == nil {
		return
	}
	now := nowNS()
	t.mu.Lock()
	t.msgs = append(t.msgs, msgEvent{at: at, t: now, m: m})
	t.mu.Unlock()
}

func (t *tracer) entry(r entryRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.entries = append(t.entries, r)
	t.mu.Unlock()
}

// timingLink is a wire.Link (and so a runtime.Transport) that notes every
// message passing through it and otherwise does nothing. The link nearest
// the TCP transport also notes deliveries, by wrapping the callback the
// transport delivers through.
type timingLink struct {
	next wire.Link
	tr   *tracer
	at   uint8
}

func (l *timingLink) Start(deliver func(dst int, m tme.Message)) {
	if l.at != atWire {
		l.next.Start(deliver)
		return
	}
	l.next.Start(func(dst int, m tme.Message) {
		l.tr.message(atDeliver, m)
		deliver(dst, m)
	})
}

func (l *timingLink) Send(m tme.Message) {
	l.tr.message(l.at, m)
	l.next.Send(m)
}

func (l *timingLink) Close() error { return l.next.Close() }

// Span is one timed interval at a layer boundary. Parent is the span that
// caused it (-1 for none), which need not contain it: a reply's flight is
// caused by the request's. Entry names the request all spans of one entry
// share, as "clock.pid" of its REQ timestamp.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Entry  string `json:"entry"`
	// Chain marks the spans of the blocking chain: the peer whose reply
	// arrived last, which is the one the entry waited for.
	Chain bool `json:"chain,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Span names, after the layer whose public boundary ends them.
const (
	spanEntry      = "harness.entry"
	spanRequest    = "runtime.request_call"
	spanChaos      = "wire.chaos"
	spanHop        = "wire.transport.hop"
	spanTurnaround = "runtime.reply_turnaround"
	spanToEntry    = "runtime.deliver_to_entry"
	spanRelease    = "runtime.release_call"
)

// flightKey names one protocol message for matching it across boundaries.
type flightKey struct {
	kind     tme.Kind
	from, to int
	ts       ltime.Timestamp
}

// buildSpans turns the collected events into spans, one tree per entry:
//
//	harness.entry                      request issued .. entry notified
//	  runtime.request_call             the RequestShard call
//	    wire.chaos                     REQ to peer k: handed to Send .. released by the proxy
//	      wire.transport.hop           .. delivered at k
//	        runtime.reply_turnaround   .. k's REPLY handed to Send
//	          wire.chaos               REPLY: .. released by the proxy
//	            wire.transport.hop     .. delivered at the requester
//	              runtime.deliver_to_entry   last REPLY delivered .. entry notified
//	  runtime.release_call             the ReleaseShard call
//
// A request has one such chain per peer; the chain whose reply arrived
// last is marked as the blocking one and alone ends in deliver_to_entry.
// A resent message (W' firing) is matched by its first copy to get
// through. A boundary a message never reached (dropped at a partition)
// ends its chain there. n is the cluster size.
func buildSpans(n int, msgs []msgEvent, entries []entryRecord) []Span {
	// First time each message was seen at each boundary, and every REPLY
	// hand-off per (replier, requester) in time order.
	first := map[flightKey]*[3]int64{}
	replies := map[[2]int][]msgEvent{}
	sorted := append([]msgEvent(nil), msgs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].t < sorted[j].t })
	for _, e := range sorted {
		k := flightKey{e.m.Kind, e.m.From, e.m.To, e.m.TS}
		f := first[k]
		if f == nil {
			f = &[3]int64{}
			first[k] = f
		}
		if f[e.at] == 0 {
			f[e.at] = e.t
		}
		if e.m.Kind == tme.Reply && e.at == atSend {
			pair := [2]int{e.m.From, e.m.To}
			replies[pair] = append(replies[pair], e)
		}
	}

	var spans []Span
	add := func(parent int, name string, start, end int64, entry string) int {
		id := len(spans)
		spans = append(spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: end, Entry: entry})
		return id
	}
	// leg adds the proxy and hop spans of one message under parent and
	// returns the hop's id and the delivery time (0 if never delivered).
	leg := func(parent int, k flightKey, entry string) (int, int64) {
		f := first[k]
		if f == nil || f[atSend] == 0 || f[atWire] == 0 {
			return -1, 0
		}
		c := add(parent, spanChaos, f[atSend], f[atWire], entry)
		if f[atDeliver] == 0 {
			return -1, 0
		}
		return add(c, spanHop, f[atWire], f[atDeliver], entry), f[atDeliver]
	}

	for _, r := range entries {
		entry := fmt.Sprintf("%d.%d", r.req.Clock, r.req.PID)
		root := add(-1, spanEntry, r.t0, r.entered, entry)
		call := add(root, spanRequest, r.t0, r.t1, entry)
		last, lastHop := int64(0), -1
		for k := 0; k < n; k++ {
			if k == r.node {
				continue
			}
			hop, delivered := leg(call, flightKey{tme.Request, r.node, k, r.req}, entry)
			if hop < 0 {
				continue
			}
			// The reply this delivery caused: the first one k handed to
			// Send for this requester afterwards.
			var reply *msgEvent
			for i := range replies[[2]int{k, r.node}] {
				if e := &replies[[2]int{k, r.node}][i]; e.t >= delivered && e.t <= r.entered {
					reply = e
					break
				}
			}
			if reply == nil {
				continue
			}
			turn := add(hop, spanTurnaround, delivered, reply.t, entry)
			back, arrived := leg(turn, flightKey{tme.Reply, k, r.node, reply.m.TS}, entry)
			if back < 0 || arrived > r.entered {
				continue
			}
			if arrived > last {
				last, lastHop = arrived, back
			}
		}
		if lastHop >= 0 {
			// Every span's parent is its cause, so the blocking chain is the
			// path from the last link back up to the request call.
			for id := add(lastHop, spanToEntry, last, r.entered, entry); id != root; id = spans[id].Parent {
				spans[id].Chain = true
			}
		}
		add(root, spanRelease, r.r0, r.r1, entry)
	}
	return spans
}

// selfTimes is each span's duration minus the part of its own interval
// that its child spans cover, in ns, indexed by span id.
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		// Clip the children to the span and measure their union.
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, edge int64
		edge = s.Start
		for _, v := range ivs {
			if v.a > edge {
				edge = v.a
			}
			if v.b > edge {
				covered += v.b - edge
				edge = v.b
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// ledger sums, entry by entry, the self times of the blocking chain and
// divides by the measured request-to-entry time: how much of an entry's
// latency the layer spans account for, times 1000. Entries whose chain
// could not be matched count with a zero sum.
func ledger(spans []Span) (sumOverE2Ex1000 float64, entries int) {
	self := selfTimes(spans)
	var chain, e2e int64
	for _, s := range spans {
		if s.Name == spanEntry {
			e2e += s.dur()
			entries++
		} else if s.Chain {
			chain += self[s.ID]
		}
	}
	return ratio(float64(chain), float64(e2e)) * 1000, entries
}

// spanDurationsUS collects the durations of every span of one name, in
// microseconds.
func spanDurationsUS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// writeSpans writes the spans of every traced run, keyed by what was run.
func writeSpans(path string, runs map[string][]Span) error {
	b, err := json.Marshal(runs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
