package subid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskSetHasCount(t *testing.T) {
	m := NewMask(7)
	for _, b := range []int{3, 5, 6} {
		m.Set(b)
	}
	for _, b := range []int{3, 5, 6} {
		if !m.Has(b) {
			t.Errorf("bit %d not set", b)
		}
	}
	for _, b := range []int{0, 1, 2, 4} {
		if m.Has(b) {
			t.Errorf("bit %d unexpectedly set", b)
		}
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	got := m.Bits()
	want := []int{3, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bits = %v, want %v", got, want)
		}
	}
	if m.String() != "{3,5,6}" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestMaskGrowsAcrossWords(t *testing.T) {
	var m Mask
	m.Set(0)
	m.Set(63)
	m.Set(64)
	m.Set(130)
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
	for _, b := range []int{0, 63, 64, 130} {
		if !m.Has(b) {
			t.Errorf("bit %d not set", b)
		}
	}
	if m.Has(129) || m.Has(65) {
		t.Error("spurious bits set")
	}
}

func TestMaskEqualIgnoresTrailingZeros(t *testing.T) {
	a := MaskOf(7, 1, 3)
	b := MaskOf(200, 1, 3) // longer backing array, same bits
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("masks with same bits not Equal")
	}
	c := MaskOf(200, 1, 3, 130)
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("masks with different bits Equal")
	}
}

// TestMaskWithinAndCompare: Within is subset, and Compare is a total order
// that agrees with Equal, across words and mask lengths.
func TestMaskWithinAndCompare(t *testing.T) {
	masks := []Mask{nil, MaskOf(7, 1), MaskOf(200, 1), MaskOf(7, 1, 3), MaskOf(7, 3), MaskOf(200, 130), MaskOf(200, 1, 130)}
	for _, a := range masks {
		for _, b := range masks {
			within := true
			for _, bit := range a.Bits() {
				within = within && b.Has(bit)
			}
			if a.Within(b) != within {
				t.Errorf("%v.Within(%v) = %v, want %v", a, b, !within, within)
			}
			if c := a.Compare(b); (c == 0) != a.Equal(b) || c != -b.Compare(a) {
				t.Errorf("%v.Compare(%v) = %d, reverse %d, Equal %v", a, b, c, b.Compare(a), a.Equal(b))
			}
			for _, x := range masks {
				if a.Compare(b) < 0 && b.Compare(x) < 0 && a.Compare(x) >= 0 {
					t.Errorf("Compare not transitive over %v < %v < %v", a, b, x)
				}
			}
		}
	}
}

func TestMaskCloneIndependent(t *testing.T) {
	a := MaskOf(7, 2)
	b := a.Clone()
	b.Set(5)
	if a.Has(5) {
		t.Fatal("Clone shares storage")
	}
}

// TestMaskReset: Reset sizes a mask by the word rule NewMask uses, clears
// every word, and reuses storage with room without allocating.
func TestMaskReset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		m := MaskOf(256, 0, 70, 255).Reset(n)
		if len(m) != len(NewMask(n)) || m.Count() != 0 {
			t.Fatalf("Reset(%d) = %d words, %d bits set; want %d words, none set", n, len(m), m.Count(), len(NewMask(n)))
		}
	}
	m := NewMask(256)
	if allocs := testing.AllocsPerRun(100, func() {
		m.Set(200)
		m = m.Reset(130)
	}); allocs != 0 {
		t.Fatalf("Reset within capacity allocated %v times", allocs)
	}
}

func TestIDKeyRoundTrip(t *testing.T) {
	id := ID{Broker: 12345, Local: 67890}
	b, l := KeyParts(id.Key())
	if b != id.Broker || l != id.Local {
		t.Fatalf("KeyParts = %d,%d", b, l)
	}
	// Distinct (broker, local) pairs must produce distinct keys.
	seen := make(map[uint64]bool)
	for broker := BrokerID(0); broker < 50; broker++ {
		for local := LocalID(0); local < 50; local++ {
			k := ID{Broker: broker, Local: local}.Key()
			if seen[k] {
				t.Fatalf("key collision at %d/%d", broker, local)
			}
			seen[k] = true
		}
	}
}

// TestPaperFigure6 reproduces the worked example of Figure 6: a system of
// 4 brokers, 8 outstanding subscriptions each, 7 attributes. The depicted
// id is subscription 1 of broker 2 with constraints on attributes 3, 5, 6.
func TestPaperFigure6(t *testing.T) {
	l, err := NewLayout(4, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if l.BrokerBits != 2 || l.LocalBits != 3 || l.AttrCount != 7 {
		t.Fatalf("layout = %+v", l)
	}
	if l.TotalBits() != 12 {
		t.Fatalf("TotalBits = %d, want 12", l.TotalBits())
	}
	if l.WireSize() != 2 {
		t.Fatalf("WireSize = %d, want 2", l.WireSize())
	}
	id := ID{Broker: 2, Local: 1, Attrs: MaskOf(7, 3, 5, 6)}
	if err := l.Validate(id); err != nil {
		t.Fatal(err)
	}
	if id.NumAttrs() != 3 {
		t.Fatalf("NumAttrs = %d, want 3", id.NumAttrs())
	}
	buf := l.Pack(nil, id)
	if len(buf) != 2 {
		t.Fatalf("packed size = %d, want 2", len(buf))
	}
	got, err := l.Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Broker != 2 || got.Local != 1 || !got.Attrs.Equal(id.Attrs) {
		t.Fatalf("round trip = %v", got)
	}
}

func TestLayoutBitWidths(t *testing.T) {
	cases := []struct {
		brokers, subs, attrs        int
		brokerBits, localBits, wire int
	}{
		{1000, 1_000_000, 10, 10, 20, 5}, // the paper's running sizes
		{24, 1000, 10, 5, 10, 4},         // Table 2 deployment: s_id = 4
		{2, 2, 1, 1, 1, 1},
		{1, 1, 1, 1, 1, 1},
		{256, 256, 64, 8, 8, 10},
	}
	for _, c := range cases {
		l, err := NewLayout(c.brokers, c.subs, c.attrs)
		if err != nil {
			t.Errorf("NewLayout(%d,%d,%d): %v", c.brokers, c.subs, c.attrs, err)
			continue
		}
		if l.BrokerBits != c.brokerBits || l.LocalBits != c.localBits {
			t.Errorf("NewLayout(%d,%d,%d) = %+v, want c1=%d c2=%d",
				c.brokers, c.subs, c.attrs, l, c.brokerBits, c.localBits)
		}
		if l.WireSize() != c.wire {
			t.Errorf("NewLayout(%d,%d,%d).WireSize = %d, want %d",
				c.brokers, c.subs, c.attrs, l.WireSize(), c.wire)
		}
	}
	if _, err := NewLayout(0, 1, 1); err == nil {
		t.Error("zero brokers accepted")
	}
	if _, err := NewLayout(1, 0, 1); err == nil {
		t.Error("zero subs accepted")
	}
	if _, err := NewLayout(1, 1, 0); err == nil {
		t.Error("zero attrs accepted")
	}
}

func TestLayoutValidateRejectsOverflow(t *testing.T) {
	l, _ := NewLayout(4, 8, 7)
	bad := []ID{
		{Broker: 4, Local: 0},
		{Broker: 0, Local: 8},
		{Broker: 0, Local: 0, Attrs: MaskOf(8, 7)},
	}
	for i, id := range bad {
		if err := l.Validate(id); err == nil {
			t.Errorf("bad id %d accepted", i)
		}
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	l, _ := NewLayout(24, 1000, 10)
	if _, err := l.Unpack([]byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// Property: Pack/Unpack round-trips arbitrary in-range ids across random
// layouts, including attribute counts spanning multiple mask words.
func TestPackUnpackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(brokerSeed, localSeed uint32, attrSeed uint64) bool {
		attrs := 1 + rng.Intn(130)
		brokers := 1 + rng.Intn(5000)
		subs := 1 + rng.Intn(100000)
		l, err := NewLayout(brokers, subs, attrs)
		if err != nil {
			return false
		}
		id := ID{
			Broker: BrokerID(uint64(brokerSeed) % uint64(brokers)),
			Local:  LocalID(uint64(localSeed) % uint64(subs)),
			Attrs:  NewMask(attrs),
		}
		for b := 0; b < attrs; b++ {
			if attrSeed>>(b%64)&1 == 1 && rng.Intn(3) == 0 {
				id.Attrs.Set(b)
			}
		}
		if err := l.Validate(id); err != nil {
			return false
		}
		buf := l.Pack(nil, id)
		if len(buf) != l.WireSize() {
			return false
		}
		got, err := l.Unpack(buf)
		if err != nil {
			return false
		}
		return got.Broker == id.Broker && got.Local == id.Local && got.Attrs.Equal(id.Attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPackAppendsToBuffer(t *testing.T) {
	l, _ := NewLayout(24, 1000, 10)
	id := ID{Broker: 3, Local: 42, Attrs: MaskOf(10, 0, 9)}
	prefix := []byte{0xAA, 0xBB}
	buf := l.Pack(prefix, id)
	if len(buf) != 2+l.WireSize() {
		t.Fatalf("len = %d", len(buf))
	}
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatal("prefix clobbered")
	}
	got, err := l.Unpack(buf[2:])
	if err != nil || got.Broker != 3 || got.Local != 42 {
		t.Fatalf("unpack after prefix: %v %v", got, err)
	}
}
