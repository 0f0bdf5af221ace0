package summary

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
)

// TestMergeCommutative: A⊕B and B⊕A are behaviourally identical — they
// report the same ids for any event (multi-broker summaries must not
// depend on merge order, since Algorithm 2 merges in topology order).
func TestMergeCommutative(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		a := New(s, interval.Lossy)
		b := New(s, interval.Lossy)
		for i := 0; i < 40; i++ {
			if err := a.Insert(subid.ID{Broker: 1, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
				t.Fatal(err)
			}
			if err := b.Insert(subid.ID{Broker: 2, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
				t.Fatal(err)
			}
		}
		ab := a.Clone()
		if err := ab.MergeEncoded(b.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		ba := b.Clone()
		if err := ba.MergeEncoded(a.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		mab, mba := ab.NewMatcher(), ba.NewMatcher()
		for probe := 0; probe < 200; probe++ {
			ev := randomEvent(rng, s)
			if !reflect.DeepEqual(mab.MatchKeys(ev), mba.MatchKeys(ev)) {
				t.Fatalf("merge not commutative on %s:\nA⊕B %v\nB⊕A %v",
					ev.Format(s), mab.MatchKeys(ev), mba.MatchKeys(ev))
			}
		}
	}
}

// TestMergeAssociativeBehaviour: (A⊕B)⊕C and A⊕(B⊕C) agree up to false
// positives. They need not report the same ids: an equality value is
// folded into whichever sub-range covers it when it arrives, so which
// other values over-report it depends on the order the ranges came in
// (a quarter of these seeds differ on some event). What holds on every seed
// is the law the owner's exact re-match relies on: both orders report
// every id whose subscription matches the event, so an id that only one
// of them reports is a false positive.
func TestMergeAssociativeBehaviour(t *testing.T) {
	s := stockSchema(t)
	differ := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		subs := make(map[uint64]*schema.Subscription)
		build := func(broker subid.BrokerID) *Summary {
			sm := New(s, interval.Lossy)
			for i := 0; i < 25; i++ {
				id, sub := subid.ID{Broker: broker, Local: subid.LocalID(i)}, randomSubscription(rng, s)
				if err := sm.Insert(id, sub); err != nil {
					t.Fatal(err)
				}
				subs[id.Key()] = sub
			}
			return sm
		}
		a, b, c := build(1), build(2), build(3)
		left := a.Clone()
		if err := left.MergeEncoded(b.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := left.MergeEncoded(c.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		bc := b.Clone()
		if err := bc.MergeEncoded(c.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		right := a.Clone()
		if err := right.MergeEncoded(bc.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		seedDiffers := false
		matchers := []*Matcher{left.NewMatcher(), right.NewMatcher()}
		for probe := 0; probe < 100; probe++ {
			ev := randomEvent(rng, s)
			reported := [2]map[uint64]bool{{}, {}}
			for side, m := range matchers {
				for _, k := range m.MatchKeys(ev) {
					reported[side][k] = true
				}
			}
			for k, sub := range subs {
				if sub.Matches(ev) && !(reported[0][k] && reported[1][k]) {
					t.Fatalf("seed %d: id %d matches %s, reported by (A⊕B)⊕C %v, A⊕(B⊕C) %v",
						seed, k, ev.Format(s), reported[0][k], reported[1][k])
				}
			}
			for side := range reported {
				for k := range reported[side] {
					if reported[1-side][k] {
						continue
					}
					seedDiffers = true
					if sub := subs[k]; sub == nil || sub.Matches(ev) {
						t.Fatalf("seed %d: id %d, reported by one order only on %s, is not a false positive", seed, k, ev.Format(s))
					}
				}
			}
		}
		if seedDiffers {
			differ++
		}
	}
	t.Logf("the two orders differ, in false positives only, on %d of 200 seeds", differ)
}

// TestRemoveRestoresAbsence: inserting then removing a subscription leaves
// no trace in matching behaviour relative to a summary that never saw it.
func TestRemoveRestoresAbsence(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(10))
	base := New(s, interval.Lossy)
	subs := make(map[uint64]bool)
	for i := 0; i < 30; i++ {
		id := subid.ID{Broker: 1, Local: subid.LocalID(i)}
		if err := base.Insert(id, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
		subs[id.Key()] = true
	}
	// A copy that takes 10 extra subscriptions and then removes them.
	churned := base.Clone()
	extras := make([]subid.ID, 10)
	for i := range extras {
		extras[i] = subid.ID{Broker: 2, Local: subid.LocalID(i)}
		if err := churned.Insert(extras[i], randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range extras {
		churned.Remove(id)
	}
	if churned.NumSubscriptions() != base.NumSubscriptions() {
		t.Fatalf("subscriptions = %d, want %d", churned.NumSubscriptions(), base.NumSubscriptions())
	}
	mc, mb := churned.NewMatcher(), base.NewMatcher()
	for probe := 0; probe < 1000; probe++ {
		ev := randomEvent(rng, s)
		got := mc.MatchKeys(ev)
		gotSet := make(map[uint64]bool, len(got))
		for _, k := range got {
			if !subs[k] {
				t.Fatalf("ghost id %d after removal on %s", k, ev.Format(s))
			}
			gotSet[k] = true
		}
		// No false negatives versus base: removal must not take other ids
		// with it. (The churned summary may report a SUPERSET: a removed
		// subscription can leave a generalized SACS pattern behind, which
		// is the documented lossy behaviour — precision is restored by the
		// owner's exact re-match.)
		for _, k := range mb.MatchKeys(ev) {
			if !gotSet[k] {
				t.Fatalf("false negative after churn on %s: id %d missing", ev.Format(s), k)
			}
		}
	}
}

// TestEncodeDeterministicAcrossClones: Encode must be a pure function of
// summary content — clones encode identically.
func TestEncodeDeterministicAcrossClones(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(11))
	sm := New(s, interval.Lossy)
	for i := 0; i < 60; i++ {
		if err := sm.Insert(subid.ID{Broker: 3, Local: subid.LocalID(i)}, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
	}
	a := sm.Encode(nil)
	b := sm.Clone().Encode(nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("clone encodes differently")
	}
	// Decode → encode is also stable.
	back, err := Decode(s, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Encode(nil), a) {
		t.Fatal("decode/encode not a fixed point")
	}
}

// TestCompactPreservesMatching: Summary.Compact never changes MatchKeys.
func TestCompactPreservesMatching(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(22))
	sm := New(s, interval.Lossy)
	var live []subid.ID
	for i := 0; i < 200; i++ {
		id := subid.ID{Broker: 1, Local: subid.LocalID(i)}
		if err := sm.Insert(id, randomSubscription(rng, s)); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	for i := 0; i < 80; i++ {
		j := rng.Intn(len(live))
		sm.Remove(live[j])
		live = append(live[:j], live[j+1:]...)
	}
	events := make([]*schema.Event, 300)
	before := make([][]uint64, len(events))
	m := sm.NewMatcher()
	for i := range events {
		events[i] = randomEvent(rng, s)
		before[i] = slices.Clone(m.MatchKeys(events[i]))
	}
	merged := sm.Compact()
	t.Logf("Compact eliminated %d rows", merged)
	m = sm.NewMatcher()
	for i, ev := range events {
		if !reflect.DeepEqual(m.MatchKeys(ev), before[i]) {
			t.Fatalf("matching changed after Compact on %s", ev.Format(s))
		}
	}
}

// TestValidateAfterChurn: the cross-structure invariants hold through
// random insert/remove/merge/compact sequences, and Validate catches a
// deliberately corrupted registry.
func TestValidateAfterChurn(t *testing.T) {
	s := stockSchema(t)
	rng := rand.New(rand.NewSource(23))
	sm := New(s, interval.Lossy)
	var live []subid.ID
	for step := 0; step < 400; step++ {
		switch {
		case rng.Intn(3) > 0 || len(live) == 0:
			id := subid.ID{Broker: subid.BrokerID(rng.Intn(4)), Local: subid.LocalID(step)}
			if err := sm.Insert(id, randomSubscription(rng, s)); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		default:
			j := rng.Intn(len(live))
			sm.Remove(live[j])
			live = append(live[:j], live[j+1:]...)
		}
		if step%40 == 0 {
			sm.Compact()
			if err := sm.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	other := New(s, interval.Lossy)
	if err := other.Insert(subid.ID{Broker: 9, Local: 1}, randomSubscription(rng, s)); err != nil {
		t.Fatal(err)
	}
	if err := sm.MergeEncoded(other.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := sm.Validate(); err != nil {
		t.Fatalf("after merge: %v", err)
	}
	// Corrupt the registry: Validate must notice.
	victim := subid.ID{Broker: 9, Local: 1}.Key()
	delete(sm.ids, victim)
	if err := sm.Validate(); err == nil {
		t.Fatal("Validate missed an unregistered id")
	}
}
