package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// The event and deliver codec: the wire form eventMsgSize and
// deliverMsgSize count (see core.go), written and read back. Every broker
// lives in one process, so nothing in the engine writes or reads these
// bytes; the codec is the size functions' oracle.

// msgFlagTrace marks a header that carries a trace id (u64,
// little-endian) right after the flags byte.
const msgFlagTrace = 0x01

// appendMsgHeader writes the flags byte and optional trace id.
func appendMsgHeader(buf []byte, traceID uint64) []byte {
	if traceID == 0 {
		return append(buf, 0)
	}
	buf = append(buf, msgFlagTrace)
	return binary.LittleEndian.AppendUint64(buf, traceID)
}

// decodeMsgHeader reads the flags byte and optional trace id, returning
// the consumed length.
func decodeMsgHeader(buf []byte) (traceID uint64, n int, err error) {
	if len(buf) < 1 {
		return 0, 0, fmt.Errorf("core: short message header")
	}
	flags := buf[0]
	if flags&^msgFlagTrace != 0 {
		return 0, 0, fmt.Errorf("core: unknown message flags %#x", flags)
	}
	n = 1
	if flags&msgFlagTrace != 0 {
		if len(buf) < 9 {
			return 0, 0, fmt.Errorf("core: truncated trace id")
		}
		traceID = binary.LittleEndian.Uint64(buf[1:9])
		if traceID == 0 {
			return 0, 0, fmt.Errorf("core: zero trace id")
		}
		n = 9
	}
	return traceID, n, nil
}

// encodeEventMsg appends m's wire form to buf.
func encodeEventMsg(buf []byte, m *eventMsg) ([]byte, error) {
	buf = appendMsgHeader(buf, m.traceID)
	buf, err := encodeMask(buf, m.brocli)
	if err != nil {
		return nil, err
	}
	buf, err = encodeMask(buf, m.delivered)
	if err != nil {
		return nil, err
	}
	return schema.EncodeEvent(buf, m.ev), nil
}

// decodeEventMsg decodes an event message of a network of the given
// broker count; bytes after the event are an error.
func decodeEventMsg(s *schema.Schema, buf []byte, brokers int) (*eventMsg, error) {
	m := new(eventMsg)
	traceID, n0, err := decodeMsgHeader(buf)
	if err != nil {
		return nil, err
	}
	m.traceID = traceID
	buf = buf[n0:]
	m.brocli, n0, err = decodeMask(buf, brokers)
	if err != nil {
		return nil, err
	}
	buf = buf[n0:]
	m.delivered, n0, err = decodeMask(buf, brokers)
	if err != nil {
		return nil, err
	}
	buf = buf[n0:]
	m.ev, n0, err = schema.DecodeEvent(s, buf)
	if err != nil {
		return nil, err
	}
	if n0 != len(buf) {
		return nil, fmt.Errorf("core: %d bytes after the event", len(buf)-n0)
	}
	return m, nil
}

// appendDeliverHead appends a record's header and id list to buf; the
// packed event follows. keys are ascending id keys of a single owner; only
// their local halves travel.
func appendDeliverHead(buf []byte, traceID uint64, keys []uint64) []byte {
	buf = appendMsgHeader(buf, traceID)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := subid.LocalID(0)
	for _, key := range keys {
		_, local := subid.KeyParts(key)
		buf = binary.AppendUvarint(buf, uint64(local-prev))
		prev = local
	}
	return buf
}

// appendDeliverRecord appends one whole deliver record to buf.
func appendDeliverRecord(buf []byte, traceID uint64, keys []uint64, ev *schema.Event) []byte {
	return schema.EncodeEvent(appendDeliverHead(buf, traceID, keys), ev)
}

// encodeDeliverMsg appends d's wire form to buf: its records in order,
// each under d's trace id.
func encodeDeliverMsg(buf []byte, d *deliverMsg) []byte {
	for _, r := range d.recs {
		buf = appendDeliverRecord(buf, d.traceID, d.keys[r.lo:r.hi], r.ev)
	}
	return buf
}

// decodeDeliverRecord decodes the record at the head of buf, appending
// its ids to keys as id keys of owner, and returns the bytes consumed.
func decodeDeliverRecord(s *schema.Schema, buf []byte, owner subid.BrokerID, keys []uint64) (_ *schema.Event, _ []uint64, traceID uint64, n int, err error) {
	traceID, n, err = decodeMsgHeader(buf)
	if err != nil {
		return nil, keys, 0, 0, err
	}
	count, used := canonicalUvarint(buf[n:])
	n += used
	// Every id takes at least a byte, which bounds what a hostile count
	// can make the key slice grow to.
	if used == 0 || count == 0 || count > uint64(len(buf)-n) {
		return nil, keys, 0, 0, fmt.Errorf("core: bad deliver id count")
	}
	local := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, used := canonicalUvarint(buf[n:])
		n += used
		local += delta
		if used == 0 || (delta == 0 && i > 0) || delta > math.MaxUint32 || local > math.MaxUint32 {
			return nil, keys, 0, 0, fmt.Errorf("core: bad deliver id list")
		}
		keys = append(keys, subid.ID{Broker: owner, Local: subid.LocalID(local)}.Key())
	}
	ev, used, err := schema.DecodeEvent(s, buf[n:])
	if err != nil {
		return nil, keys, 0, 0, err
	}
	return ev, keys, traceID, n + used, nil
}

// decodeDeliverMsg decodes a deliver message for owner. It holds at
// least one record, and every record carries the first one's trace id.
func decodeDeliverMsg(s *schema.Schema, buf []byte, owner subid.BrokerID) (*deliverMsg, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("core: empty deliver message")
	}
	d := new(deliverMsg)
	for i := 0; len(buf) > 0; i++ {
		lo := len(d.keys)
		ev, keys, traceID, n, err := decodeDeliverRecord(s, buf, owner, d.keys)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			d.traceID = traceID
		} else if traceID != d.traceID {
			return nil, fmt.Errorf("core: record %d has trace id %d, the first %d", i, traceID, d.traceID)
		}
		d.keys = keys
		d.recs = append(d.recs, deliverRecord{ev: ev, lo: lo, hi: len(keys)})
		buf = buf[n:]
	}
	return d, nil
}
