package main

import (
	"slices"
	"testing"

	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/schema"
)

// small is the sizing the tests run at: a hundredth of the events and a
// tenth of the subscriptions per broker.
var small = sizing{pool: 100, shrink: 10}

func TestBuildOracleIsBruteForceMatches(t *testing.T) {
	s := schema.MustNew(
		schema.Attribute{Name: "price", Type: schema.TypeFloat},
		schema.Attribute{Name: "sym", Type: schema.TypeString},
	)
	sub := func(text string) *schema.Subscription {
		t.Helper()
		sub, err := schema.ParseSubscription(s, text)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	ev := func(text string) *schema.Event {
		t.Helper()
		ev, err := schema.ParseEvent(s, text)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	subs := []*schema.Subscription{sub("price > 5"), sub("sym = OTE && price < 9"), sub("sym >* O")}
	pool := []*schema.Event{ev("price=7 sym=OTE"), ev("price=3"), ev("sym=OXY price=12")}
	got := buildOracle(subs, pool)
	want := [][]int32{{0, 1, 2}, nil, {0, 2}}
	for k := range want {
		if !slices.Equal(got[k], want[k]) {
			t.Errorf("event %d: oracle %v, want %v", k, got[k], want[k])
		}
	}
}

// The negative control: with deliver messages being lost the checker must
// see it, report a non-zero failed ratio, and the one-run mode must fail
// (main turns that into a non-zero exit). Without loss the same run is
// clean, so the failures are the fault's and not the harness's.
func TestOracleNegativeControl(t *testing.T) {
	for _, workload := range []string{"fanout-cw24", "churn-mixed-cw24", "tcp-fanout-cw24"} {
		o := runOpts{workload: workload, seed: 3, seconds: 0.3, size: small}
		clean, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if clean.Failed != 0 {
			t.Fatalf("%s without faults: %d of %d failed", workload, clean.Failed, clean.Attempted)
		}
		o.afterSetup = func(net *core.Network) { net.Faults().SetLoss(netsim.KindDeliver, 0.3, 1) }
		lossy, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if lossy.Failed == 0 || lossy.failedRatio() <= 0 || lossy.correct() {
			t.Errorf("%s with 30%% deliver loss: failed=%d of %d; the checker is not live", workload, lossy.Failed, lossy.Attempted)
		}
		if workload != "fanout-cw24" {
			continue // the exit path below is the same for every workload
		}
		if err := runOne(o); err == nil {
			t.Errorf("%s with 30%% deliver loss: the one-run mode reported success", workload)
		}
	}
}

func TestCheckerCatchesDuplicateAndSpuriousDeliveries(t *testing.T) {
	sp, _ := specByName("fanout-cw24")
	in, err := generate(sp, 5, small)
	if err != nil {
		t.Fatal(err)
	}
	in.oracle = buildOracle(in.subs, in.pool)
	k := slices.IndexFunc(in.oracle, func(subs []int32) bool { return len(subs) > 0 })
	if k < 0 {
		t.Fatal("no pool event delivers")
	}
	deliverAll := func(c *checker) {
		for _, i := range in.oracle[k] {
			c.deliver(i, int64(k))
		}
	}
	cases := []struct {
		name   string
		extra  func(c *checker)
		failed int64
	}{
		{"exact", func(*checker) {}, 0},
		{"duplicate", func(c *checker) { c.deliver(in.oracle[k][0], int64(k)) }, 1},
		{"wrong event", func(c *checker) { c.deliver(in.oracle[k][0], int64(k)+1) }, 1},
	}
	for _, tc := range cases {
		c := newChecker(in, nil)
		c.mode.Store(modeLatency)
		c.begin(k, -1)
		deliverAll(c)
		tc.extra(c)
		c.finish(k, nil)
		c.settle(0)
		if c.failed != tc.failed {
			t.Errorf("%s: failed = %d, want %d", tc.name, c.failed, tc.failed)
		}
	}
	// Missing: nothing delivered for an event the oracle says delivers.
	c := newChecker(in, nil)
	c.mode.Store(modeLatency)
	c.begin(k, -1)
	c.finish(k, nil)
	c.settle(0)
	if c.failed != 1 {
		t.Errorf("missing: failed = %d, want 1", c.failed)
	}
}
