package summary

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// Binary wire codec for summaries. This is what brokers actually exchange
// in the TCP daemon and what netsim counts when measuring real (not
// modelled) bytes.
//
// The format is bandwidth-lean: id keys and id lists travel sorted and
// delta-encoded as uvarints (ids owned by one broker share the c1 high
// bits, so consecutive deltas are tiny), and c3 mask words are uvarints
// (attribute counts are small, so high words are zero). The fourth magic
// byte is the version: '2' for a summary without retractions, '3' for the
// same layout followed by a retraction section.
//
// Layout (little endian):
//
//	magic "SSM", version byte '2' | '3', mode u8
//	id registry:  count uvarint, then per id, sorted by key:
//	    key uvarint delta from previous key (first key verbatim)
//	    words u8, word uvarint ×words
//	AACS section: count u16, per attribute:
//	    attr u16
//	    ranges u32 × {lo f64, hi f64, flags u8, ids}
//	    eqs    u32 × {val f64, ids}
//	    nes    u32 × {val f64, ids}
//	SACS section: count u16, per attribute:
//	    attr u16
//	    rows u32 × {op u8, textLen u16, text, ids}
//	    nes  u32 × {textLen u16, text, ids}
//	retraction section (version '3' only): ids
//
// where ids is count uvarint followed by the first key as a uvarint and
// count-1 strictly positive uvarint deltas (the list is sorted ascending).
// The words u8 bounds a c3 mask at 255 words, which is where
// schema.MaxAttributes comes from.
//
// The retraction section lists the id keys whose subscriptions were
// withdrawn since the summary's baseline. A receiver merges the body, then
// removes every retracted key from its own structures and retains the set
// for onward propagation. Encode emits version '3' only when the summary
// carries retractions, so churn-free payloads are byte-identical to
// version '2'. Any other version byte — including '1', the fixed-width
// format this one replaced — is refused as unsupported.
const (
	versionV2 = '2'
	versionV3 = '3'
)

var magicPrefix = [3]byte{'S', 'S', 'M'}

// Encode appends the summary's wire form to buf: version 2, or version 3
// when the summary carries pending retractions (the only layout change is
// the trailing retraction section).
func (sm *Summary) Encode(buf []byte) []byte {
	sm.purgeDead() // tombstoned rows must never reach the wire
	version := byte(versionV2)
	if len(sm.retract) > 0 {
		version = versionV3
	}
	buf = append(buf, magicPrefix[:]...)
	buf = append(buf, version, byte(interval.Lossy))

	// Registry, sorted by key for determinism and for the delta encoding.
	keys := append([]uint64(nil), sm.keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := uint64(0)
	for _, key := range keys {
		buf = binary.AppendUvarint(buf, key-prev) // first key verbatim: prev is 0
		prev = key
		mask := sm.maskOf(key)
		buf = append(buf, byte(len(mask)))
		for _, w := range mask {
			buf = binary.AppendUvarint(buf, w)
		}
	}

	// AACS section.
	aattrs := sortedAttrs(sm.aacs)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(aattrs)))
	for _, a := range aattrs {
		s := sm.aacs[a]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(a))
		rows := s.Rows()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
		for _, r := range rows {
			buf = appendFloat(buf, r.Interval.Lo)
			buf = appendFloat(buf, r.Interval.Hi)
			var flags byte
			if r.Interval.LoOpen {
				flags |= 1
			}
			if r.Interval.HiOpen {
				flags |= 2
			}
			buf = append(buf, flags)
			buf = appendIDs(buf, r.IDs)
		}
		buf = appendEqRows(buf, s.EqRows())
		buf = appendEqRows(buf, s.NeRows())
	}

	// SACS section.
	sattrs := sortedAttrs(sm.sacs)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sattrs)))
	for _, a := range sattrs {
		s := sm.sacs[a]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(a))
		rows := s.Rows()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
		for _, r := range rows {
			buf = append(buf, byte(r.Pattern.Op))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Pattern.Text)))
			buf = append(buf, r.Pattern.Text...)
			buf = appendIDs(buf, r.IDs)
		}
		nes := s.NeRows()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nes)))
		for _, r := range nes {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Pattern.Text)))
			buf = append(buf, r.Pattern.Text...)
			buf = appendIDs(buf, r.IDs)
		}
	}

	if version == versionV3 {
		buf = appendIDs(buf, sm.Retractions())
	}
	return buf
}

func sortedAttrs[T any](m map[schema.AttrID]T) []schema.AttrID {
	out := make([]schema.AttrID, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendIDs writes an id list. Stored id lists are sorted ascending
// without duplicates (the structures' insertion invariant); appendIDs
// falls back to sorting a scratch copy if handed a list that is not, so
// the output is always well-formed.
func appendIDs(buf []byte, ids []uint64) []byte {
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		sorted := append([]uint64(nil), ids...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		ids = sorted
	}
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := uint64(0)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id-prev) // first id verbatim: prev is 0
		prev = id
	}
	return buf
}

func appendEqRows(buf []byte, rows []interval.EqView) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, r := range rows {
		buf = appendFloat(buf, r.Value)
		buf = appendIDs(buf, r.IDs)
	}
	return buf
}

// decoder is a bounds-checked cursor over an encoded summary.
type decoder struct {
	buf         []byte
	off         int
	retractions bool // version '3': a retraction section follows the body
	err         error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("summary: "+format, args...)
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 {
	v := math.Float64frombits(d.u64())
	if math.IsNaN(v) {
		// NaN compares false against everything, which would corrupt the
		// sorted row invariants downstream; no encoder emits it.
		d.fail("NaN float at offset %d", d.off)
	}
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads an id/registry element count bounded by the remaining
// buffer, where each remaining element occupies at least minBytes bytes —
// a corrupt length can therefore never trigger a huge allocation.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off)/uint64(minBytes)+1 {
		d.fail("count %d exceeds buffer at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

// ids decodes one id list into dst, a scratch list reused between calls.
// The returned list is sorted ascending by construction.
func (d *decoder) ids(dst []uint64) []uint64 {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	prev := uint64(0)
	for i := range dst {
		v := d.uvarint()
		if i > 0 {
			if v == 0 {
				d.fail("id list not strictly ascending at offset %d", d.off)
				return nil
			}
			next := prev + v
			if next < prev {
				d.fail("id delta overflow at offset %d", d.off)
				return nil
			}
			v = next
		}
		dst[i] = v
		prev = v
	}
	if d.err != nil {
		return nil
	}
	return dst
}

// header validates the magic, version, and mode bytes. The mode byte must
// be interval.Lossy's; any other is refused.
func (d *decoder) header() error {
	m := d.bytes(3)
	if m == nil || string(m) != string(magicPrefix[:]) {
		return fmt.Errorf("summary: bad magic")
	}
	version := d.u8()
	if version != versionV2 && version != versionV3 {
		return fmt.Errorf("summary: unsupported wire version %q", version)
	}
	d.retractions = version == versionV3
	if mode := interval.Mode(d.u8()); mode != interval.Lossy {
		return fmt.Errorf("summary: bad mode %d", mode)
	}
	return nil
}

// registryEntry decodes one registry entry: the id key (delta-decoded
// against prev) and its c3 mask, read into maskScratch.
func (d *decoder) registryEntry(i int, prev uint64, maskScratch subid.Mask) (uint64, subid.Mask) {
	key := d.uvarint()
	if i > 0 {
		if key == 0 {
			d.fail("registry keys not strictly ascending at offset %d", d.off)
			return 0, nil
		}
		key += prev
		if key < prev {
			d.fail("registry key delta overflow at offset %d", d.off)
			return 0, nil
		}
	}
	words := int(d.u8())
	if cap(maskScratch) < words {
		maskScratch = make(subid.Mask, words)
	}
	maskScratch = maskScratch[:words]
	for w := range maskScratch {
		maskScratch[w] = d.uvarint()
	}
	return key, maskScratch
}

// Decode parses a summary encoded by Encode over schema s (attribute ids
// are schema indexes): it is MergeEncoded into an empty summary, so it
// accepts exactly what a receiving broker accepts, and a well-formed but
// redundant payload comes back normalised, not refused.
func Decode(s *schema.Schema, buf []byte) (*Summary, error) {
	sm := New(s, interval.Lossy)
	if err := sm.MergeEncoded(buf); err != nil {
		return nil, err
	}
	return sm, nil
}

// MergeEncoded folds a wire-form summary into sm row by row — the one way
// rows of another summary enter a summary (multi-broker summary
// construction, Section 4.1), and the hot path of Algorithm 2 delivery.
// Ids merge idempotently, and the payload's retractions win over every
// row merged for the same keys. Scratch buffers are reused across rows,
// so a merge allocates only what the receiving summary retains.
//
// A payload with a bad header (magic, version, mode) is refused with sm
// untouched. On a later error the summary may hold a partial merge: some
// rows and registry entries of the payload applied, the rest not. That is
// equivalent to the message having been lost mid-transfer — coverage is
// degraded (ids with incomplete attribute rows simply never reach their
// c3 count and the caller does not extend Merged_Brokers), but matching
// stays correct, the same guarantee the engine gives for dropped summary
// messages.
func (sm *Summary) MergeEncoded(buf []byte) error {
	d := &decoder{buf: buf}
	if err := d.header(); err != nil {
		return err // refused before the summary is touched
	}
	// The payload may re-register keys this summary has tombstoned; purge
	// first so stale rows cannot over-count them (see Insert).
	sm.purgeDead()

	var idScratch []uint64
	var maskScratch subid.Mask
	// Registered masks are read-only after insertion, so new keys take
	// slices of a shared slab instead of one allocation per key.
	var maskSlab []uint64

	nIDs := d.count(2)
	prev := uint64(0)
	for i := 0; i < nIDs && d.err == nil; i++ {
		var key uint64
		key, maskScratch = d.registryEntry(i, prev, maskScratch)
		if d.err != nil {
			break
		}
		prev = key
		if _, ok := sm.ids[key]; !ok {
			w := len(maskScratch)
			if len(maskSlab) < w {
				maskSlab = make([]uint64, 256*w)
			}
			mask := subid.Mask(maskSlab[:w:w])
			maskSlab = maskSlab[w:]
			copy(mask, maskScratch)
			sm.registerID(key, mask)
		}
	}

	nAACS := int(d.u16())
	for i := 0; i < nAACS && d.err == nil; i++ {
		a := schema.AttrID(d.u16())
		if int(a) >= sm.schema.Len() || !sm.schema.TypeOf(a).Arithmetic() {
			d.fail("AACS for non-arithmetic attribute %d", a)
			break
		}
		set := sm.arithSet(a)
		nRows := int(d.u32())
		for r := 0; r < nRows && d.err == nil; r++ {
			lo, hi := d.f64(), d.f64()
			flags := d.u8()
			iv := interval.Range(lo, hi, flags&1 != 0, flags&2 != 0)
			idScratch = d.ids(idScratch[:0])
			if d.err == nil {
				set.MergeRow(iv, idScratch)
			}
		}
		nEq := int(d.u32())
		for r := 0; r < nEq && d.err == nil; r++ {
			v := d.f64()
			idScratch = d.ids(idScratch[:0])
			if d.err == nil {
				set.MergePoint(v, idScratch)
			}
		}
		nNe := int(d.u32())
		for r := 0; r < nNe && d.err == nil; r++ {
			v := d.f64()
			idScratch = d.ids(idScratch[:0])
			if d.err == nil {
				set.MergeNotEqual(v, idScratch)
			}
		}
	}

	nSACS := int(d.u16())
	for i := 0; i < nSACS && d.err == nil; i++ {
		a := schema.AttrID(d.u16())
		if int(a) >= sm.schema.Len() || sm.schema.TypeOf(a) != schema.TypeString {
			d.fail("SACS for non-string attribute %d", a)
			break
		}
		set := sm.strSet(a)
		nRows := int(d.u32())
		for r := 0; r < nRows && d.err == nil; r++ {
			op := schema.Op(d.u8())
			if !op.StringOp() || op == schema.OpNE {
				d.fail("bad SACS operator %d", op)
				break
			}
			text := d.bytes(int(d.u16()))
			idScratch = d.ids(idScratch[:0])
			if d.err == nil {
				set.MergeRowBytes(op, text, idScratch)
			}
		}
		nNe := int(d.u32())
		for r := 0; r < nNe && d.err == nil; r++ {
			text := d.bytes(int(d.u16()))
			idScratch = d.ids(idScratch[:0])
			if d.err == nil {
				set.MergeRowBytes(schema.OpNE, text, idScratch)
			}
		}
	}

	if d.retractions && d.err == nil {
		// Apply the payload's retractions last, so they override any rows
		// this payload (or an earlier one) merged for the same keys, and
		// retain them for onward propagation. Long-lived merged summaries
		// that never re-propagate call ClearRetractions afterwards.
		idScratch = d.ids(idScratch[:0])
		if d.err == nil {
			for _, key := range idScratch {
				sm.AddRetraction(key)
			}
		}
	}

	if d.err != nil {
		return d.err
	}
	if d.off != len(buf) {
		return fmt.Errorf("summary: %d trailing bytes", len(buf)-d.off)
	}
	return nil
}
