// Frame layout, version 2 — the compact codec. A v2 connection opens
// with the 4-byte preamble "GBW2" (written once by the dialing side;
// receivers sniff it, so v1 and v2 transports interoperate edge by edge),
// then carries self-delimiting frames:
//
//	kind        1 byte   (tme.Kind; forged values round-trip, as in v1)
//	clock       uvarint  zigzag(clock - previous frame's clock)
//	ts.pid      uvarint  field tag (see below)
//	from        uvarint  field tag
//	to          uvarint  field tag
//	resource    uvarint  field tag (shard id; 0 in unsharded clusters)
//
// A field tag is either an intern-table reference, tag = slot<<1, or a
// literal, tag = zigzag(value)<<1 | 1. Every literal is inserted into a
// 64-slot table at a round-robin cursor on BOTH ends, so the decoder's
// table replays the encoder's exactly and a reference is one byte for any
// id the connection has seen recently. Timestamps get the same treatment
// through delta encoding: clocks grow mostly monotonically, so the delta
// is a small (often one-byte) varint where v1 spent a fixed eight bytes.
// The common REQ/REP/REL frame is 4-6 bytes against v1's 28.
//
// All codec state is per connection and starts at zero (clock 0, empty
// table) on both ends of a fresh connection; a redial resets it, which is
// what makes retransmitted batches decode correctly after a crash.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

const (
	// Version2 selects the compact codec for outgoing connections.
	Version2 = 2
	// v2Preamble announces the v2 codec at connection start.
	v2Preamble = "GBW2"
	// internSlots is the id intern table size. 64 covers the pid/from/to
	// working set of any plausible cluster while keeping the encoder's
	// linear scan trivially cache-resident.
	internSlots = 64
	// maxV2Frame bounds one encoded v2 frame: kind byte plus five
	// maximal 10-byte varints.
	maxV2Frame = 1 + 5*binary.MaxVarintLen64
)

// ErrV2BadRef is returned when a v2 frame references an intern-table slot
// that no literal has populated — the streams have desynced (or the frame
// is garbage), so the connection must be dropped.
var ErrV2BadRef = errors.New("wire: v2 frame references unpopulated intern slot")

// internTable mirrors id state across a v2 connection. Both ends insert
// every literal at the cursor and advance it, so lookups resolve to the
// same values on both sides without any handshake.
type internTable struct {
	vals [internSlots]int32
	used [internSlots]bool
	next int
}

// lookup scans for v (the table is small enough that a linear scan beats
// any map — and allocates nothing).
func (t *internTable) lookup(v int32) (int, bool) {
	for i := range t.vals {
		if t.used[i] && t.vals[i] == v {
			return i, true
		}
	}
	return 0, false
}

// insert stores v at the round-robin cursor.
func (t *internTable) insert(v int32) {
	t.vals[t.next] = v
	t.used[t.next] = true
	t.next = (t.next + 1) % internSlots
}

// V2Encoder encodes frames for one v2 connection. Not goroutine-safe;
// state must start fresh per connection (use NewV2Encoder at dial time).
type V2Encoder struct {
	prevClock uint64
	ids       internTable
}

// NewV2Encoder returns an encoder with zeroed connection state.
func NewV2Encoder() *V2Encoder { return &V2Encoder{} }

// AppendFrame appends one v2 frame for m to dst. The field-range rules
// match v1 (kind in a byte, ids in int32); on error no state is mutated
// and nothing is appended, so a dropped message cannot desync the stream.
func (e *V2Encoder) AppendFrame(dst []byte, m tme.Message) ([]byte, error) {
	if m.Kind < 0 || m.Kind > math.MaxUint8 {
		return dst, errKindRange(m.Kind)
	}
	if !fitsInt32(m.TS.PID) || !fitsInt32(m.From) || !fitsInt32(m.To) {
		return dst, errIDRange(m.TS.PID, m.From, m.To)
	}
	if !fitsInt32(m.Resource) {
		return dst, errResourceRange(m.Resource)
	}
	dst = append(dst, byte(m.Kind))
	delta := m.TS.Clock - e.prevClock // uint64 wraparound is the contract
	dst = binary.AppendUvarint(dst, zigzag(int64(delta)))
	e.prevClock = m.TS.Clock
	dst = e.appendID(dst, int32(m.TS.PID))
	dst = e.appendID(dst, int32(m.From))
	dst = e.appendID(dst, int32(m.To))
	dst = e.appendID(dst, int32(m.Resource))
	return dst, nil
}

func (e *V2Encoder) appendID(dst []byte, v int32) []byte {
	if slot, ok := e.ids.lookup(v); ok {
		return binary.AppendUvarint(dst, uint64(slot)<<1)
	}
	dst = binary.AppendUvarint(dst, zigzag(int64(v))<<1|1)
	e.ids.insert(v)
	return dst
}

// byteScanner is what the v2 deframer needs: varint decoding wants
// ReadByte. *bufio.Reader and *bytes.Reader both satisfy it.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

// V2Reader deframes one v2 connection (after the preamble has been
// consumed). Not goroutine-safe; state must start fresh per connection.
type V2Reader struct {
	r         byteScanner
	prevClock uint64
	ids       internTable
}

// NewV2Reader returns a deframing v2 reader over r with zeroed connection
// state. Readers that cannot scan bytes are wrapped in a bufio.Reader.
func NewV2Reader(r io.Reader) *V2Reader {
	bs, ok := r.(byteScanner)
	if !ok {
		bs = newByteScanner(r)
	}
	return &V2Reader{r: bs}
}

// ReadMessage reads one v2 frame. io.EOF at a frame boundary is returned
// as-is; EOF inside a frame becomes io.ErrUnexpectedEOF. Malformed input
// (overlong varints, ids outside int32, references to unpopulated intern
// slots) returns an error and never panics; framing is lost, so callers
// must drop the connection.
func (r *V2Reader) ReadMessage() (tme.Message, error) {
	kind, err := r.r.ReadByte()
	if err != nil {
		return tme.Message{}, err // io.EOF here is a clean stream end
	}
	dz, err := binary.ReadUvarint(r.r)
	if err != nil {
		return tme.Message{}, midFrame(err)
	}
	clock := r.prevClock + uint64(unzigzag(dz))
	pid, err := r.readID()
	if err != nil {
		return tme.Message{}, err
	}
	from, err := r.readID()
	if err != nil {
		return tme.Message{}, err
	}
	to, err := r.readID()
	if err != nil {
		return tme.Message{}, err
	}
	res, err := r.readID()
	if err != nil {
		return tme.Message{}, err
	}
	r.prevClock = clock
	return tme.Message{
		Kind:     tme.Kind(kind),
		TS:       ltime.Timestamp{Clock: clock, PID: int(pid)},
		From:     int(from),
		To:       int(to),
		Resource: int(res),
	}, nil
}

func (r *V2Reader) readID() (int32, error) {
	tag, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, midFrame(err)
	}
	if tag&1 == 0 {
		slot := tag >> 1
		if slot >= internSlots || !r.ids.used[slot] {
			return 0, errV2BadRef(slot)
		}
		return r.ids.vals[slot], nil
	}
	v := unzigzag(tag >> 1)
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, errIDRange(int(v), 0, 0)
	}
	r.ids.insert(int32(v))
	return int32(v), nil
}

// midFrame maps EOF inside a frame to io.ErrUnexpectedEOF (matching the
// v1 reader's contract) and passes every other error through.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func errV2BadRef(slot uint64) error {
	return fmt.Errorf("%w: slot %d", ErrV2BadRef, slot)
}

// zigzag maps signed to unsigned so small-magnitude values (of either
// sign) get short varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// newByteScanner adapts a plain io.Reader for varint decoding.
func newByteScanner(r io.Reader) byteScanner {
	return &oneByteScanner{r: r}
}

type oneByteScanner struct {
	r io.Reader
	b [1]byte
}

func (s *oneByteScanner) Read(p []byte) (int, error) { return s.r.Read(p) }

func (s *oneByteScanner) ReadByte() (byte, error) {
	if _, err := io.ReadFull(s.r, s.b[:]); err != nil {
		return 0, err
	}
	return s.b[0], nil
}
