package main

import (
	"encoding/json"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/metrics"
	"github.com/subsum/subsum/internal/netsim"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/strmatch"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/wire"
)

// sink keeps the compiler from discarding a timed call's result.
var sink int

// timeOps times up to `passes` loops of n calls to fn, each loop one span,
// and returns the median cost of one call in nanoseconds. It stops early
// once half a second has gone into the loops: an operation that slow needs
// no second pass to be resolved. Layers are priced from outside, by timing
// calls into their exported functions.
func (r *runner) timeOps(name, layer string, passes, n int, fn func(i int)) float64 {
	var per []float64
	var spent time.Duration
	for p := 0; p < passes && spent < time.Second/2; p++ {
		s := r.span(name, layer, -1, -1)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		r.endSpan(s)
		per = append(per, float64(d.Nanoseconds())/float64(n))
		spent += d
	}
	return median(per)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(1, len(xs)))
}

// layers fills the per-layer metrics. It runs after the end-to-end phases
// (m holds their counters), with the checker off; the steps that change
// the network's state — idle periods, the churn burst, the wire session —
// come last, in that order.
func (r *runner) layers(e *engine, m *measured, out map[string]float64) error {
	in := r.in
	sch := e.net.Schema()
	pool, nPool := in.pool, len(in.pool)
	g := in.graph
	n := g.Len()
	hub := g.NodesByDegreeDesc()[0]
	d := func(a, b float64) float64 { return (b - a) / m.events }

	// Counts over the end-to-end phases, from the engine's own counters.
	out["core.routed_per_event"] = d(m.c0.routed, m.c1.routed)
	out["core.forwarded_per_event"] = d(m.c0.forwarded, m.c1.forwarded)
	out["core.deliver_sends_per_event"] = d(m.c0.deliverSends, m.c1.deliverSends)
	out["netsim.msgs_per_event"] = d(m.c0.msgs, m.c1.msgs)
	out["netsim.bytes_per_event"] = d(m.c0.bytes, m.c1.bytes)
	out["netsim.dropped"] = float64(m.c1.dropped)
	out["netsim.decode_errors"] = float64(m.c1.decodeErrs)
	out["netsim.handler_errors"] = float64(m.c1.handlerErrs)
	var routedMax, routedSum float64
	for i := range m.c1.matchCount {
		c := m.c1.matchCount[i] - m.c0.matchCount[i]
		routedMax, routedSum = max(routedMax, c), routedSum+c
	}
	out["broker.max_routed_share"] = routedMax / routedSum
	var deliveries float64
	for _, subs := range in.oracle {
		deliveries += float64(len(subs))
	}
	fpPerEvent := d(m.c0.falsePositives, m.c1.falsePositives)
	callsPerEvent := float64(r.chk.ownerCalls)/float64(nPool) + fpPerEvent
	out["broker.deliver_hit_ratio"] = deliveries / float64(nPool) / callsPerEvent
	out["core.allocs_per_event"] = float64(m.mem1.Mallocs-m.mem0.Mallocs) / m.memEv
	out["core.alloc_bytes_per_event"] = float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / m.memEv
	out["core.gc_cycles"] = float64(m.mem1.NumGC - m.mem0.NumGC)

	// schema: the event codec and the text parser, over the pool.
	texts := e.texts
	if texts == nil {
		texts = make([]string, nPool)
		for k, ev := range pool {
			texts[k] = renderEvent(in.schema, ev)
		}
	}
	enc := make([][]byte, nPool)
	for k, ev := range pool {
		enc[k] = schema.EncodeEvent(nil, ev)
	}
	var parseErr error
	out["schema.parse_event_ns"] = r.timeOps("schema.ParseEvent", "schema", 3, nPool, func(k int) {
		if _, err := schema.ParseEvent(sch, texts[k]); err != nil {
			parseErr = err
		}
	})
	if parseErr != nil {
		return parseErr
	}
	buf := make([]byte, 0, 512)
	out["schema.encode_event_ns"] = r.timeOps("schema.EncodeEvent", "schema", 3, nPool, func(k int) {
		sink += len(schema.EncodeEvent(buf[:0], pool[k]))
	})
	out["schema.decode_event_ns"] = r.timeOps("schema.DecodeEvent", "schema", 3, nPool, func(k int) {
		_, used, _ := schema.DecodeEvent(sch, enc[k])
		sink += used
	})
	out["schema.sub_matches_ns"] = r.timeOps("schema.Subscription.Matches", "schema", 3, 32*nPool, func(i int) {
		if in.subs[(i*7)%len(in.subs)].Matches(pool[i%nPool]) {
			sink++
		}
	})

	// interval, strmatch: one attribute's constraint set, built from the
	// workload's own subscriptions and queried with its own event values.
	var arith, str schema.AttrID // the first arithmetic and the first string attribute
	for a := sch.Len() - 1; a >= 0; a-- {
		if sch.TypeOf(schema.AttrID(a)).Arithmetic() {
			arith = schema.AttrID(a)
		} else {
			str = schema.AttrID(a)
		}
	}
	ivs, pats := interval.NewSet(interval.Lossy), strmatch.NewSet()
	for i, sub := range in.subs {
		iv, has := interval.Full(), false
		for _, c := range sub.Constraints {
			if c.Attr == str {
				pats.Insert(strmatch.FromConstraint(c), uint64(i))
			}
			if c.Attr != arith {
				continue
			}
			has = true
			switch c.Op {
			case schema.OpGE:
				iv.Lo, iv.LoOpen = c.Value.Num, false
			case schema.OpLE:
				iv.Hi, iv.HiOpen = c.Value.Num, false
			default: // the generator's only other arithmetic operator is =
				iv = interval.Point(c.Value.Num)
			}
		}
		if has {
			ivs.Insert(iv, uint64(i))
		}
	}
	var nums []float64
	var strs []string
	for _, ev := range pool {
		if v, ok := ev.Value(arith); ok {
			nums = append(nums, v.Num)
		}
		if v, ok := ev.Value(str); ok {
			strs = append(strs, v.Str)
		}
	}
	var ids []uint64
	out["interval.append_matches_ns"] = r.timeOps("interval.Set.AppendMatches", "interval", 3, 8*len(nums), func(i int) {
		ids = ivs.AppendMatches(ids[:0], nums[i%len(nums)])
	})
	out["strmatch.append_matches_ns"] = r.timeOps("strmatch.Set.AppendMatches", "strmatch", 3, 8*len(strs), func(i int) {
		ids = pats.AppendMatches(ids[:0], strs[i%len(strs)])
	})

	// summary: Algorithm 1 and the codec on the hub's merged view.
	hubSum, hubMask := e.net.Broker(hub).SnapshotMerged()
	matcher := hubSum.NewMatcher()
	out["summary.match_ns"] = r.timeOps("summary.Matcher.MatchKeys", "summary", 3, nPool, func(k int) {
		sink += len(matcher.MatchKeys(pool[k]))
	})
	var candidates float64
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	for _, ev := range pool {
		_, cost := matcher.MatchKeysWithCost(ev)
		candidates += float64(cost.UniqueIDs)
	}
	runtime.ReadMemStats(&mem1)
	out["summary.match_candidates"] = candidates / float64(nPool)
	out["summary.match_allocs"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(nPool)
	idOf := func(i int) subid.ID { return subid.ID{Broker: subid.BrokerID(i % n), Local: subid.LocalID(i / n)} }
	var insert, remove []float64
	own := make([]*summary.Summary, n)
	for pass := 0; pass < 3; pass++ {
		for i := range own {
			own[i] = summary.New(sch, interval.Lossy)
		}
		s := r.span("summary.Insert", "summary", -1, -1)
		start := time.Now()
		for i, sub := range in.subs {
			if err := own[i%n].Insert(idOf(i), sub); err != nil {
				return err
			}
		}
		insert = append(insert, float64(time.Since(start).Nanoseconds())/float64(len(in.subs)))
		r.endSpan(s)
		if pass == 2 {
			break // the last pass's summaries feed propagation.Run below
		}
		s = r.span("summary.RemoveKey", "summary", -1, -1)
		start = time.Now()
		for i := range in.subs {
			own[i%n].RemoveKey(idOf(i).Key())
		}
		remove = append(remove, float64(time.Since(start).Nanoseconds())/float64(len(in.subs)))
		r.endSpan(s)
	}
	out["summary.insert_ns"], out["summary.remove_ns"] = median(insert), median(remove)
	var hubEnc []byte
	out["summary.encode_ns"] = r.timeOps("summary.Encode", "summary", 3, 5, func(int) { hubEnc = hubSum.Encode(hubEnc[:0]) })
	out["summary.encoded_bytes"] = float64(len(hubEnc))
	var mergeErr error
	out["summary.merge_encoded_ns"] = r.timeOps("summary.MergeEncoded", "summary", 3, 5, func(int) {
		if err := summary.New(sch, interval.Lossy).MergeEncoded(hubEnc); err != nil {
			mergeErr = err
		}
	})
	if mergeErr != nil {
		return mergeErr
	}
	var model float64
	for i := 0; i < n; i++ {
		model += float64(e.net.Broker(topology.NodeID(i)).Stats().ModelBytes)
	}
	out["summary.model_bytes"] = model

	// propagation: offline Algorithm 2 over the same own-summaries the
	// live engine propagated in set-up; the gap to core.first_propagate_ms
	// is what running it over the live bus adds.
	passes := 3
	if len(in.subs) > 5000 {
		passes = 1
	}
	var propBytes int64
	var propErr error
	out["propagation.run_ns"] = r.timeOps("propagation.Run", "propagation", passes, 1, func(int) {
		res, err := propagation.Run(g, own, propagation.DefaultCostModel())
		if err != nil {
			propErr = err
			return
		}
		propBytes = res.WireBytes
	})
	if propErr != nil {
		return propErr
	}
	out["propagation.wire_bytes"] = float64(propBytes)

	// broker: the match and deliver paths on the live network's brokers
	// (read-only), then mutation on stand-alone brokers primed with the
	// hub's view, so the network under test is not changed.
	out["broker.match_merged_origin_ns"] = r.timeOps("broker.MatchMerged/origin", "broker", 3, nPool, func(k int) {
		sink += len(e.net.Broker(in.origin[k]).MatchMerged(pool[k]))
	})
	out["broker.match_merged_hub_ns"] = r.timeOps("broker.MatchMerged/hub", "broker", 3, nPool, func(k int) {
		sink += len(e.net.Broker(hub).MatchMerged(pool[k]))
	})
	out["broker.deliver_exact_ns"] = r.timeOps("broker.DeliverExact", "broker", 3, nPool, func(k int) {
		sink += e.net.Broker(in.origin[k]).DeliverExact(pool[k])
	})
	if err := r.brokerMutation(sch, hubEnc, hubMask, out); err != nil {
		return err
	}

	out["netsim.send_handle_ns"] = r.busRing(n, 40000)

	// core: the harness's own calls into the engine, from the spans.
	if e.pub != nil { // over TCP the harness has not called them yet; do it now
		for k := 0; k < min(500, nPool); k++ {
			s := r.span("core.Publish", "core", -1, int32(k))
			err := e.net.Publish(in.origin[k], pool[k])
			r.endSpan(s)
			if err != nil {
				return err
			}
			s = r.span("core.Flush", "core", -1, int32(k))
			e.net.Flush()
			r.endSpan(s)
		}
	}
	out["core.publish_call_ns"] = median(r.tr.durations("core.Publish"))
	out["core.flush_wait_ns"] = median(r.tr.durations("core.Flush"))
	out["harness.callback_ns"] = mean(r.tr.durations("deliver.callback"))
	perEvent := median(r.tr.durations("event"))

	// The ledger: counts × unit costs, per published event. What is left
	// of the per-event time (mailbox wait, wake-ups, mask operations, the
	// scheduler) is the unattributed share in-program spans must explain.
	routed, forwarded, sends := out["core.routed_per_event"], out["core.forwarded_per_event"], out["core.deliver_sends_per_event"]
	out["ledger.schema_us"] = ((routed+sends)*out["schema.decode_event_ns"] + (1+forwarded)*out["schema.encode_event_ns"]) / 1e3
	out["ledger.match_us"] = (m.c1.matchSeconds - m.c0.matchSeconds) / m.events * 1e6
	out["ledger.deliver_exact_us"] = callsPerEvent * out["broker.deliver_exact_ns"] / 1e3
	out["ledger.netsim_us"] = out["netsim.msgs_per_event"] * out["netsim.send_handle_ns"] / 1e3
	out["ledger.per_event_us"] = perEvent / 1e3
	attributed := out["ledger.schema_us"] + out["ledger.match_us"] + out["ledger.deliver_exact_us"] + out["ledger.netsim_us"]
	out["core.attributed_us_per_event"] = attributed
	out["core.unattributed_share"] = 1 - attributed/out["ledger.per_event_us"]

	// Idle periods: what a period costs when nothing changed.
	var idle []float64
	var hops int
	for i := 0; i < 5; i++ {
		start := time.Now()
		h, err := e.net.Propagate()
		if err != nil {
			return err
		}
		idle, hops = append(idle, float64(time.Since(start).Nanoseconds())), h
	}
	out["core.propagate_ns"] = median(idle)
	out["core.propagate_hops"] = float64(hops)

	// Churn: on the churn workload the writer's spans and totals come
	// from the timed phase; elsewhere a burst of five periods of the same
	// churn shape runs here, with no reader beside it.
	st := m.writer
	if !in.sp.churn {
		var err error
		if e.churn, err = in.newChurn(); err != nil {
			return err
		}
		e.live = make(map[int]subid.ID)
		for p := 0; p < 5; p++ {
			if err := r.churnPeriod(e, &st); err != nil {
				return err
			}
		}
	}
	out["core.subscribe_ns"] = median(r.tr.durations("core.Subscribe"))
	out["core.unsubscribe_ns"] = median(r.tr.durations("core.Unsubscribe"))
	out["core.subs_per_s"] = float64(st.ops) / st.wall.Seconds()
	out["core.propagate_period_ms"] = median(r.tr.durations("core.Propagate")) / 1e6

	return r.wireSession(e, texts, deliveries/float64(nPool), out)
}

// brokerMutation prices Subscribe, Unsubscribe, TakePeriodSummary,
// MergeEncodedSummary and the match-snapshot rebuild on three stand-alone
// brokers, each primed with the hub's merged view. The stand-alone broker
// takes the id one past the network's, so its own subscriptions cannot
// collide with merged rows.
func (r *runner) brokerMutation(sch *schema.Schema, hubEnc []byte, hubMask subid.Mask, out map[string]float64) error {
	in := r.in
	n := in.graph.Len()
	k := min(500, len(in.subs))
	noop := func(subid.ID, *schema.Event) {}
	var merge, take, subscribe, unsubscribe, rebuild []float64
	for pass := 0; pass < 3; pass++ {
		b, err := broker.New(broker.Config{
			ID: topology.NodeID(n), Schema: sch, Mode: interval.Lossy, NumBrokers: n + 1,
			Metrics: metrics.NewRegistry(),
		})
		if err != nil {
			return err
		}
		s := r.span("broker.MergeEncodedSummary", "broker", -1, -1)
		start := time.Now()
		err = b.MergeEncodedSummary(hubEnc, hubMask)
		merge = append(merge, float64(time.Since(start).Nanoseconds()))
		r.endSpan(s)
		if err != nil {
			return err
		}
		ids := make([]subid.ID, k)
		s = r.span("broker.Subscribe", "broker", -1, -1)
		start = time.Now()
		for i := 0; i < k; i++ {
			if ids[i], err = b.Subscribe(in.subs[i], noop); err != nil {
				return err
			}
		}
		subscribe = append(subscribe, float64(time.Since(start).Nanoseconds())/float64(k))
		r.endSpan(s)
		s = r.span("broker.TakePeriodSummary", "broker", -1, -1)
		start = time.Now()
		sink += b.TakePeriodSummary(false).NumSubscriptions()
		take = append(take, float64(time.Since(start).Nanoseconds()))
		r.endSpan(s)
		// Snapshot rebuild: the first match after a mutation pays for the
		// new RCU snapshot; the second is steady state.
		var firsts, steadies []float64
		for i := 0; i < 10; i++ {
			ev := in.pool[i%len(in.pool)]
			id, err := b.Subscribe(in.subs[k-1-i%k], noop)
			if err != nil {
				return err
			}
			t0 := time.Now()
			sink += len(b.MatchMerged(ev))
			t1 := time.Now()
			sink += len(b.MatchMerged(ev))
			t2 := time.Now()
			firsts = append(firsts, float64(t1.Sub(t0).Nanoseconds()))
			steadies = append(steadies, float64(t2.Sub(t1).Nanoseconds()))
			if err := b.Unsubscribe(id); err != nil {
				return err
			}
		}
		rebuild = append(rebuild, median(firsts)-median(steadies))
		s = r.span("broker.Unsubscribe", "broker", -1, -1)
		start = time.Now()
		for _, id := range ids {
			if err := b.Unsubscribe(id); err != nil {
				return err
			}
		}
		unsubscribe = append(unsubscribe, float64(time.Since(start).Nanoseconds())/float64(k))
		r.endSpan(s)
	}
	out["broker.merge_encoded_summary_ns"] = median(merge)
	out["broker.subscribe_ns"] = median(subscribe)
	out["broker.take_period_summary_ns"] = median(take)
	out["broker.snapshot_rebuild_ns"] = median(rebuild)
	out["broker.unsubscribe_ns"] = median(unsubscribe)
	return nil
}

// busRing passes a token around a ring of n endpoints of a bare bus and
// returns the cost of one Send→handler hand-off in nanoseconds. With the
// workload's own broker count every hand-off wakes a parked goroutine, as
// a hop of an event's walk does.
func (r *runner) busRing(n, hops int) float64 {
	bus := netsim.NewBus(n)
	defer bus.Close()
	done := make(chan struct{})
	var left atomic.Int64
	left.Store(int64(hops))
	for i := 0; i < n; i++ {
		at, next := topology.NodeID(i), topology.NodeID((i+1)%n)
		bus.Start(at, func(netsim.Message) {
			if left.Add(-1) == 0 {
				close(done)
				return
			}
			_ = bus.Send(netsim.Message{From: at, To: next, Kind: netsim.KindEvent}) // fails only on a closed bus
		})
	}
	s := r.span("netsim.Bus.Send→handler", "netsim", -1, -1)
	start := time.Now()
	_ = bus.Send(netsim.Message{From: 0, To: 0, Kind: netsim.KindEvent})
	<-done
	elapsed := time.Since(start)
	r.endSpan(s)
	return float64(elapsed.Nanoseconds()) / float64(hops)
}

// wireSession prices the TCP front end on the workload's own network with
// one extra connection: ping, subscribe and publish round trips, request
// and pushed-delivery sizes, and what a publish costs over the wire beyond
// the same publish made in-process. The subscriptions it adds are removed
// again before it returns.
func (r *runner) wireSession(e *engine, texts []string, deliveriesPerEvent float64, out map[string]float64) error {
	in := r.in
	sch := e.net.Schema()
	addr := e.addr
	if e.srv == nil { // the workload itself did not run over TCP
		srv := wire.NewServer(e.net, sch)
		defer srv.Close()
		var err error
		if addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
	}
	c, err := wire.Dial(addr, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	rtt := func(name string, n int, op func(i int) error) (float64, error) {
		samples := make([]float64, n)
		for i := range samples {
			s := r.span(name, "wire", -1, -1)
			start := time.Now()
			err := op(i)
			samples[i] = float64(time.Since(start).Nanoseconds()) / 1e3
			r.endSpan(s)
			if err != nil {
				return 0, err
			}
		}
		return median(samples), nil
	}
	for i := 0; i < 50; i++ { // let the connection's goroutines and buffers warm up
		if err := c.Ping(); err != nil {
			return err
		}
	}
	if out["wire.ping_rtt_us"], err = rtt("wire.Client.Ping", 300, func(int) error { return c.Ping() }); err != nil {
		return err
	}
	type handle struct {
		broker int
		local  uint32
	}
	k := min(100, len(in.subs))
	handles := make([]handle, k)
	out["wire.subscribe_rtt_us"], err = rtt("wire.Client.Subscribe", k, func(i int) error {
		b, l, err := c.Subscribe(i%r.nodes(), in.subs[i].Format(in.schema))
		handles[i] = handle{b, l}
		return err
	})
	if err != nil {
		return err
	}
	if _, err := c.Propagate(); err != nil {
		return err
	}
	trips := min(500, len(texts))
	var reqBytes float64
	out["wire.publish_rtt_us"], err = rtt("wire.Client.Publish", trips, func(k int) error {
		return c.Publish(int(in.origin[k]), texts[k])
	})
	if err != nil {
		return err
	}
	var inproc []float64
	for k := 0; k < trips; k++ {
		start := time.Now()
		if err := e.net.Publish(in.origin[k], in.pool[k]); err != nil {
			return err
		}
		e.net.Flush()
		inproc = append(inproc, float64(time.Since(start).Nanoseconds())/1e3)
		req, _ := json.Marshal(wire.Request{Op: "publish", Broker: int(in.origin[k]), Event: texts[k]})
		reqBytes += float64(len(req) + 1)
	}
	out["wire.overhead_us_per_event"] = out["wire.publish_rtt_us"] - median(inproc)
	out["wire.request_bytes"] = reqBytes / float64(trips)
	// A pushed delivery line is this Response, marshalled, plus a newline.
	var lineBytes float64
	for k := 0; k < trips; k++ {
		line, _ := json.Marshal(wire.Response{Type: "delivery", Broker: 23, Local: 99, Event: in.pool[k].Format(sch)})
		lineBytes += float64(len(line) + 1)
	}
	out["wire.delivery_bytes_per_event"] = lineBytes / float64(trips) * deliveriesPerEvent
	for _, h := range handles {
		if err := c.Unsubscribe(h.broker, h.local); err != nil {
			return err
		}
	}
	_, err = c.Propagate()
	return err
}
