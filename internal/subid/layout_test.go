package subid

import (
	"fmt"
	"math/bits"
)

// Layout fixes the bit widths of the three id components for a deployment,
// per Section 3.2: BrokerBits = ⌈log2(brokers)⌉, LocalBits =
// ⌈log2(max outstanding subscriptions per broker)⌉, AttrCount = n_t.
type Layout struct {
	BrokerBits int
	LocalBits  int
	AttrCount  int
}

// NewLayout derives a layout from deployment limits.
func NewLayout(numBrokers, maxSubsPerBroker, attrCount int) (Layout, error) {
	if numBrokers < 1 || maxSubsPerBroker < 1 || attrCount < 1 {
		return Layout{}, fmt.Errorf("subid: layout limits must be positive (brokers=%d subs=%d attrs=%d)",
			numBrokers, maxSubsPerBroker, attrCount)
	}
	l := Layout{
		BrokerBits: bitsFor(numBrokers),
		LocalBits:  bitsFor(maxSubsPerBroker),
		AttrCount:  attrCount,
	}
	if l.BrokerBits > 32 || l.LocalBits > 32 {
		return Layout{}, fmt.Errorf("subid: layout exceeds 32-bit component limits")
	}
	return l, nil
}

// bitsFor returns ⌈log2(n)⌉ with a floor of 1 bit.
func bitsFor(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// TotalBits returns the id's size in bits: |c1| + |c2| + |c3|.
func (l Layout) TotalBits() int { return l.BrokerBits + l.LocalBits + l.AttrCount }

// WireSize returns the id's packed size in bytes (the paper's s_id; with
// the Table 2 deployment — 24 brokers, 10 attributes — ids fit in 4 bytes
// when LocalBits ≤ 17).
func (l Layout) WireSize() int { return (l.TotalBits() + 7) / 8 }

// Validate checks that an id fits the layout.
func (l Layout) Validate(id ID) error {
	if l.BrokerBits < 32 && uint64(id.Broker) >= 1<<l.BrokerBits {
		return fmt.Errorf("subid: broker %d exceeds %d-bit c1", id.Broker, l.BrokerBits)
	}
	if l.LocalBits < 32 && uint64(id.Local) >= 1<<l.LocalBits {
		return fmt.Errorf("subid: local id %d exceeds %d-bit c2", id.Local, l.LocalBits)
	}
	for _, b := range id.Attrs.Bits() {
		if b >= l.AttrCount {
			return fmt.Errorf("subid: attribute bit %d exceeds c3 width %d", b, l.AttrCount)
		}
	}
	return nil
}

// Pack appends the id's exact bit-packed wire form to buf: c1, then c2,
// then c3, least-significant bit first.
func (l Layout) Pack(buf []byte, id ID) []byte {
	w := bitWriter{buf: buf}
	w.write(uint64(id.Broker), l.BrokerBits)
	w.write(uint64(id.Local), l.LocalBits)
	for i := 0; i < l.AttrCount; i += 64 {
		var word uint64
		if i/64 < len(id.Attrs) {
			word = id.Attrs[i/64]
		}
		n := l.AttrCount - i
		if n > 64 {
			n = 64
		}
		w.write(word, n)
	}
	return w.flush()
}

// Unpack decodes an id from the first WireSize() bytes of buf.
func (l Layout) Unpack(buf []byte) (ID, error) {
	if len(buf) < l.WireSize() {
		return ID{}, fmt.Errorf("subid: short buffer: %d < %d", len(buf), l.WireSize())
	}
	r := bitReader{buf: buf}
	var id ID
	id.Broker = BrokerID(r.read(l.BrokerBits))
	id.Local = LocalID(r.read(l.LocalBits))
	id.Attrs = NewMask(l.AttrCount)
	for i := 0; i < l.AttrCount; i += 64 {
		n := l.AttrCount - i
		if n > 64 {
			n = 64
		}
		id.Attrs[i/64] = r.read(n)
	}
	return id, nil
}

// bitWriter packs little-endian bit fields into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  uint64
	nCur int
}

func (w *bitWriter) write(v uint64, n int) {
	for n > 0 {
		take := 8 - w.nCur
		if take > n {
			take = n
		}
		w.cur |= (v & ((1 << take) - 1)) << w.nCur
		v >>= take
		n -= take
		w.nCur += take
		if w.nCur == 8 {
			w.buf = append(w.buf, byte(w.cur))
			w.cur, w.nCur = 0, 0
		}
	}
}

func (w *bitWriter) flush() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// bitReader reads little-endian bit fields from a byte slice.
type bitReader struct {
	buf []byte
	pos int // bit position
}

func (r *bitReader) read(n int) uint64 {
	var out uint64
	shift := 0
	for n > 0 {
		byteIdx := r.pos / 8
		bitIdx := r.pos % 8
		take := 8 - bitIdx
		if take > n {
			take = n
		}
		var b byte
		if byteIdx < len(r.buf) {
			b = r.buf[byteIdx]
		}
		out |= uint64((b>>bitIdx)&((1<<take)-1)) << shift
		shift += take
		n -= take
		r.pos += take
	}
	return out
}
