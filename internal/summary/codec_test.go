package summary

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/subid"
)

func TestCodecRoundTripSmall(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(0, 1), mustSub(t, s, `exchange = "N*SE" && symbol = OTE && price < 8.70 && price > 8.30`)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Insert(id(0, 2), mustSub(t, s, `symbol >* OT && price = 8.20 && volume > 130000 && low < 8.05`)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Insert(id(3, 9), mustSub(t, s, `exchange != NYSE && price != 4`)); err != nil {
		t.Fatal(err)
	}
	buf := sm.Encode(nil)
	got, err := Decode(s, buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.NumSubscriptions() != sm.NumSubscriptions() {
		t.Fatalf("subscriptions = %d, want %d", got.NumSubscriptions(), sm.NumSubscriptions())
	}
	if !reflect.DeepEqual(got.Stats(), sm.Stats()) {
		t.Fatalf("stats differ:\n got %+v\nwant %+v", got.Stats(), sm.Stats())
	}
	// Behavioural equivalence on a grid of probe events.
	events := []string{
		`exchange=NYSE symbol=OTE price=8.40 volume=132700 low=8.22`,
		`exchange=LSE symbol=OTE price=8.20 volume=140000 low=8.00`,
		`price=4`,
		`price=5 exchange=OSE`,
		`symbol=OTX price=8.5`,
	}
	for _, etext := range events {
		ev := mustEvent(t, s, etext)
		if !reflect.DeepEqual(got.MatchKeys(ev), sm.MatchKeys(ev)) {
			t.Fatalf("event %q: decoded %v, original %v", etext, got.MatchKeys(ev), sm.MatchKeys(ev))
		}
	}
	// Deterministic encoding.
	if !reflect.DeepEqual(sm.Encode(nil), buf) {
		t.Fatal("encoding not deterministic")
	}
}

func TestCodecRoundTripRandomized(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(31))
	sm := New(s, interval.Lossy)
	for i := 0; i < 150; i++ {
		sub := randomSubscription(rng, s)
		if err := sm.Insert(subid.ID{Broker: subid.BrokerID(rng.Intn(10)), Local: subid.LocalID(i)}, sub); err != nil {
			t.Fatal(err)
		}
	}
	buf := sm.Encode(nil)
	got, err := Decode(s, buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	mgot, msm := got.NewMatcher(), sm.NewMatcher()
	for i := 0; i < 500; i++ {
		ev := randomEvent(rng, s)
		if !reflect.DeepEqual(mgot.MatchKeys(ev), msm.MatchKeys(ev)) {
			t.Fatalf("decoded summary diverges on %s", ev.Format(s))
		}
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(0, 1), mustSub(t, s, `price > 8 && symbol = OTE`)); err != nil {
		t.Fatal(err)
	}
	buf := sm.Encode(nil)
	if _, err := Decode(s, nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if _, err := Decode(s, buf[:3]); err == nil {
		t.Fatal("short magic accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 'X'
	if _, err := Decode(s, bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Lossy (0) is the only mode byte; 1 was the retired exact mode's.
	for _, mode := range []byte{1, 99} {
		bad = append([]byte(nil), buf...)
		bad[4] = mode
		if _, err := Decode(s, bad); err == nil {
			t.Fatalf("mode byte %d accepted by Decode", mode)
		}
		if err := New(s, interval.Lossy).MergeEncoded(bad); err == nil {
			t.Fatalf("mode byte %d accepted by MergeEncoded", mode)
		}
	}
	for cut := 5; cut < len(buf); cut += 7 {
		if _, err := Decode(s, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(s, append(append([]byte(nil), buf...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestEncodeAppendsToPrefix(t *testing.T) {
	s := stockSchema(t)
	sm := New(s, interval.Lossy)
	if err := sm.Insert(id(0, 1), mustSub(t, s, `price > 8`)); err != nil {
		t.Fatal(err)
	}
	prefix := []byte{1, 2, 3}
	buf := sm.Encode(prefix)
	if !reflect.DeepEqual(buf[:3], prefix) {
		t.Fatal("prefix clobbered")
	}
	if _, err := Decode(s, buf[3:]); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySummaryRoundTrip(t *testing.T) {
	s := stockSchema(t)
	buf := New(s, interval.Lossy).Encode(nil)
	if buf[4] != byte(interval.Lossy) {
		t.Fatalf("mode byte = %d, want %d", buf[4], interval.Lossy)
	}
	got, err := Decode(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSubscriptions() != 0 {
		t.Fatalf("got %d subs", got.NumSubscriptions())
	}
}
