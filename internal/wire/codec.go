// Package wire carries TME messages across real TCP connections: a
// length-prefixed binary codec (versioned, stdlib encoding/binary), a
// transport giving each directed edge a FIFO framed stream with
// reconnect/backoff, and an in-path fault proxy (Chaos) implementing the
// engine.Surface fault verbs on live traffic so internal/fault drives real
// sockets exactly as it drives the simulators.
//
// The package sits below the protocol layer: it sees only tme.Message
// (plus ltime timestamps inside it) and never imports protocols, wrappers,
// or specs — the graybox rule holds on the wire too. Corrupted or forged
// frames are delivered as-is when structurally valid (receivers drop
// semantic garbage, exactly as in the simulator's fault model); frames
// that are not structurally valid produce an error, never a panic.
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

// Frame layout, version 1. Everything is big-endian.
//
//	offset  size  field
//	0       4     payload length (uint32; 24 for v1)
//	4       1     version (1)
//	5       1     message kind (tme.Kind; forged values round-trip)
//	6       2     resource shard id (uint16; 0 = the single legacy shard)
//	8       8     timestamp clock (uint64)
//	16      4     timestamp pid (int32)
//	20      4     from (int32)
//	24      4     to (int32)
//
// The REQ/REP/REL kinds and the wrapper's resent REQs all share this one
// shape — a wrapper resend is just another Request frame, which is what
// lets W' stay protocol-shaped on the wire.
const (
	// Version is the codec version emitted by this package.
	Version = 1
	// lenPrefixSize is the length prefix preceding every payload.
	lenPrefixSize = 4
	// payloadV1Size is the fixed v1 payload size.
	payloadV1Size = 24
	// FrameSize is the full on-wire size of a v1 frame.
	FrameSize = lenPrefixSize + payloadV1Size
	// MaxPayload bounds the payload length a reader will accept, so a
	// corrupt or hostile length prefix cannot force a huge allocation.
	MaxPayload = 1 << 12
)

// Codec errors. Decoding malformed input returns one of these (possibly
// wrapped); it never panics.
var (
	ErrPayloadTooLarge = errors.New("wire: payload length exceeds MaxPayload")
	ErrBadVersion      = errors.New("wire: unsupported frame version")
	ErrBadLength       = errors.New("wire: payload length wrong for version")
	ErrFieldRange      = errors.New("wire: message field outside encodable range")
)

// AppendFrame appends the full frame (length prefix + payload) for m to
// dst and returns the extended slice. It errors when a field does not fit
// the wire shape (kind outside a byte, ids outside int32) — the codec
// deliberately accepts invalid-but-encodable values, since the fault model
// forges them on purpose.
func AppendFrame(dst []byte, m tme.Message) ([]byte, error) {
	if m.Kind < 0 || m.Kind > math.MaxUint8 {
		return dst, errKindRange(m.Kind)
	}
	if !fitsInt32(m.TS.PID) || !fitsInt32(m.From) || !fitsInt32(m.To) {
		return dst, errIDRange(m.TS.PID, m.From, m.To)
	}
	if m.Resource < 0 || m.Resource > math.MaxUint16 {
		return dst, errResourceRange(m.Resource)
	}
	var b [FrameSize]byte
	binary.BigEndian.PutUint32(b[0:4], payloadV1Size)
	b[4] = Version
	b[5] = byte(m.Kind)
	binary.BigEndian.PutUint16(b[6:8], uint16(m.Resource))
	binary.BigEndian.PutUint64(b[8:16], m.TS.Clock)
	binary.BigEndian.PutUint32(b[16:20], uint32(int32(m.TS.PID)))
	binary.BigEndian.PutUint32(b[20:24], uint32(int32(m.From)))
	binary.BigEndian.PutUint32(b[24:28], uint32(int32(m.To)))
	return append(dst, b[:]...), nil
}

func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// DecodePayload decodes one payload (the bytes after the length prefix).
// Malformed input returns an error; no input panics.
func DecodePayload(p []byte) (tme.Message, error) {
	if len(p) < 1 {
		return tme.Message{}, errBadLengthBytes(0)
	}
	if p[0] != Version {
		return tme.Message{}, errBadVersion(p[0])
	}
	if len(p) != payloadV1Size {
		return tme.Message{}, errBadLengthBytes(len(p))
	}
	return tme.Message{
		Kind: tme.Kind(p[1]),
		TS: ltime.Timestamp{
			Clock: binary.BigEndian.Uint64(p[4:12]),
			PID:   int(int32(binary.BigEndian.Uint32(p[12:16]))),
		},
		From:     int(int32(binary.BigEndian.Uint32(p[16:20]))),
		To:       int(int32(binary.BigEndian.Uint32(p[20:24]))),
		Resource: int(binary.BigEndian.Uint16(p[2:4])),
	}, nil
}

// Reader deframes messages from an io.Reader.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader returns a deframing reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, FrameSize)}
}

// ReadMessage reads one frame. io.EOF at a frame boundary is returned
// as-is; EOF inside a frame becomes io.ErrUnexpectedEOF. A malformed
// frame (oversized length, bad version/length/flags) returns an error and
// leaves the stream mid-frame — callers should drop the connection, since
// framing is lost.
//
// Every conforming v1 frame is exactly FrameSize bytes, so the reader
// pulls header and payload with one ReadFull into a reused buffer — over
// a bufio.Reader that is one buffer copy, not two reads. A short read is
// still diagnosed from whatever arrived: a complete length prefix
// claiming more than MaxPayload reports ErrPayloadTooLarge even when the
// rest of the frame never showed up.
func (r *Reader) ReadMessage() (tme.Message, error) {
	buf := r.buf[:FrameSize]
	n, err := io.ReadFull(r.r, buf)
	if err != nil {
		if n >= lenPrefixSize {
			if pl := binary.BigEndian.Uint32(buf[:lenPrefixSize]); pl > MaxPayload {
				return tme.Message{}, errPayloadTooLarge(pl)
			}
		}
		return tme.Message{}, err
	}
	pl := binary.BigEndian.Uint32(buf[:lenPrefixSize])
	if pl > MaxPayload {
		return tme.Message{}, errPayloadTooLarge(pl)
	}
	if pl != payloadV1Size {
		return tme.Message{}, errBadLengthBytes(int(pl))
	}
	return DecodePayload(buf[lenPrefixSize:])
}

// Error constructors live outside the codec bodies: on the fast path none
// of these run — the allocation happens only on the (connection-fatal)
// error arm, and TestCodecAllocatesNothing holds the fast path to zero.

func errKindRange(k tme.Kind) error {
	return fmt.Errorf("%w: kind %d", ErrFieldRange, k)
}

func errIDRange(pid, from, to int) error {
	return fmt.Errorf("%w: pid/from/to (%d,%d,%d)", ErrFieldRange, pid, from, to)
}

func errResourceRange(r int) error {
	return fmt.Errorf("%w: resource %d", ErrFieldRange, r)
}

func errBadVersion(v byte) error {
	return fmt.Errorf("%w: %d", ErrBadVersion, v)
}

func errBadLengthBytes(n int) error {
	return fmt.Errorf("%w: %d bytes", ErrBadLength, n)
}

func errPayloadTooLarge(n uint32) error {
	return fmt.Errorf("%w: %d", ErrPayloadTooLarge, n)
}
