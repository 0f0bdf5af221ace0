// Package subsum is a from-scratch implementation of the
// subscription-summarization publish/subscribe paradigm (Triantafillou &
// Economides, ICDCS 2004): content-based pub/sub where brokers exchange
// compact per-attribute summaries of their subscriptions instead of the
// subscriptions themselves.
//
// The package re-exports the library's public surface:
//
//   - Schema / Event / Subscription / Constraint — the content model
//     (Section 2.1) with the full operator set (=, ≠, <, ≤, >, ≥, prefix,
//     suffix, containment, glob) and a small textual query language
//     (ParseSubscription, ParseEvent).
//   - Summary — a broker's summarized subscription set (AACS + SACS,
//     Section 3) with Algorithm 1 matching, merging into multi-broker
//     summaries (Section 4.1), and a binary wire codec.
//   - Graph — broker overlay topologies, including the 24-node backbone
//     used by the paper's evaluation and the Figure 7 example tree.
//   - Network — the live engine: broker actors exchanging real messages
//     over an in-process bus that runs their handlers on a bounded worker
//     pool; periodic summary propagation (Algorithm 2) and
//     distributed event routing (Algorithm 3) with exact re-matching at
//     owning brokers, so consumers see no false deliveries.
//
// The experiments package regenerates every figure of the paper's
// evaluation; cmd/subsum-bench prints them.
//
// # Quick start
//
//	s := subsum.MustSchema(
//		subsum.Attribute{Name: "symbol", Type: subsum.TypeString},
//		subsum.Attribute{Name: "price", Type: subsum.TypeFloat},
//	)
//	net, _ := subsum.NewNetwork(subsum.NetworkConfig{
//		Topology: subsum.Backbone24(), Schema: s,
//	})
//	defer net.Close()
//	sub, _ := subsum.ParseSubscription(s, `symbol = OTE && price < 8.70`)
//	net.Subscribe(3, sub, func(id subsum.SubscriptionID, ev *subsum.Event) {
//		fmt.Println("delivered:", ev.Format(s))
//	})
//	net.Propagate()
//	ev, _ := subsum.ParseEvent(s, `symbol=OTE price=8.40`)
//	net.Publish(0, ev)
//	net.Flush()
package subsum

import (
	"io"

	"github.com/subsum/subsum/internal/broker"
	"github.com/subsum/subsum/internal/core"
	"github.com/subsum/subsum/internal/interval"
	"github.com/subsum/subsum/internal/propagation"
	"github.com/subsum/subsum/internal/routing"
	"github.com/subsum/subsum/internal/schema"
	"github.com/subsum/subsum/internal/subid"
	"github.com/subsum/subsum/internal/summary"
	"github.com/subsum/subsum/internal/topology"
	"github.com/subsum/subsum/internal/workload"
)

// Content model (Section 2.1).
type (
	// Schema is the system-wide ordered set of attribute definitions.
	Schema = schema.Schema
	// Attribute is a (name, type) pair in the schema.
	Attribute = schema.Attribute
	// Type enumerates attribute data types.
	Type = schema.Type
	// Value is a typed attribute value.
	Value = schema.Value
	// Field is one attribute/value pair of an event.
	Field = schema.Field
	// Event is a published notification.
	Event = schema.Event
	// Constraint is one attribute condition of a subscription.
	Constraint = schema.Constraint
	// Subscription is a conjunction of constraints.
	Subscription = schema.Subscription
	// Op enumerates constraint operators.
	Op = schema.Op
)

// Attribute types.
const (
	TypeString = schema.TypeString
	TypeInt    = schema.TypeInt
	TypeFloat  = schema.TypeFloat
	TypeDate   = schema.TypeDate
)

// Constraint operators. OpPrefix, OpSuffix, and OpContains are the paper's
// ">*", "*<", and "*"; OpGlob matches patterns with embedded '*' such as
// "m*t".
const (
	OpEQ       = schema.OpEQ
	OpNE       = schema.OpNE
	OpLT       = schema.OpLT
	OpLE       = schema.OpLE
	OpGT       = schema.OpGT
	OpGE       = schema.OpGE
	OpPrefix   = schema.OpPrefix
	OpSuffix   = schema.OpSuffix
	OpContains = schema.OpContains
	OpGlob     = schema.OpGlob
)

// Value constructors.
var (
	String = schema.StringValue
	Int    = schema.IntValue
	Float  = schema.FloatValue
	Date   = schema.DateValue
)

// NewSchema builds a schema from attribute definitions.
func NewSchema(attrs ...Attribute) (*Schema, error) { return schema.New(attrs...) }

// MustSchema is NewSchema panicking on error, for literal schemas.
func MustSchema(attrs ...Attribute) *Schema { return schema.MustNew(attrs...) }

// NewSubscription validates constraints and builds a subscription.
func NewSubscription(s *Schema, cs ...Constraint) (*Subscription, error) {
	return schema.NewSubscription(s, cs...)
}

// ParseSubscription parses `attr op value && ...` subscription text, e.g.
// `exchange = "N*SE" && price < 8.70 && price > 8.30`.
func ParseSubscription(s *Schema, text string) (*Subscription, error) {
	return schema.ParseSubscription(s, text)
}

// NewEvent builds an event from named values.
func NewEvent(s *Schema, fields map[string]Value) (*Event, error) {
	return schema.NewEvent(s, fields)
}

// ParseEvent parses `attr=value ...` event text, e.g.
// `symbol=OTE price=8.40 volume=132700`.
func ParseEvent(s *Schema, text string) (*Event, error) {
	return schema.ParseEvent(s, text)
}

// Subscription identifiers (Section 3.2).
type (
	// SubscriptionID is the c1‖c2‖c3 subscription identifier.
	SubscriptionID = subid.ID
	// BrokerID identifies a broker (the c1 component).
	BrokerID = subid.BrokerID
	// LocalID identifies a subscription within its broker (c2).
	LocalID = subid.LocalID
)

// Summaries (Sections 3–4).
type (
	// Summary is a (possibly multi-broker) subscription summary.
	Summary = summary.Summary
	// SummaryMode selects the AACS equality handling.
	SummaryMode = interval.Mode
)

// Lossy is the paper's AACS equality folding (pre-filter false positives
// resolved at owners), the one summary mode.
const Lossy = interval.Lossy

// NewSummary returns an empty summary over the schema.
func NewSummary(s *Schema, mode SummaryMode) *Summary { return summary.New(s, mode) }

// Allocation-free matching (Algorithm 1 hot path).
type (
	// Matcher runs Algorithm 1 against one summary with reusable scratch
	// state — zero steady-state allocations per matched event. Create one
	// with Summary.NewMatcher; a matcher is single-threaded, but any
	// number may run concurrently against the same summary.
	Matcher = summary.Matcher
	// MatcherPool pools matchers bound to one summary for concurrent
	// event sweeps.
	MatcherPool = summary.MatcherPool
	// MatchCost reports the Section 5.2.4 operation counts (T1/T2 terms)
	// of one Algorithm 1 run.
	MatchCost = summary.MatchCost
)

// NewMatcherPool returns a pool whose matchers are bound to sm.
func NewMatcherPool(sm *Summary) *MatcherPool { return summary.NewMatcherPool(sm) }

// DecodeSummary parses a summary from its binary wire form.
func DecodeSummary(s *Schema, buf []byte) (*Summary, error) { return summary.Decode(s, buf) }

// Topologies (Section 5.2).
type (
	// Graph is an undirected broker overlay.
	Graph = topology.Graph
	// NodeID identifies a broker in the overlay.
	NodeID = topology.NodeID
)

// Topology constructors.
var (
	// Backbone24 is the 24-node ISP backbone approximating the paper's
	// Cable & Wireless topology.
	Backbone24 = topology.CW24
	// Backbone33 is a 33-node overlay at the upper end of the paper's
	// "20 to 33 backbone nodes" ISP range.
	Backbone33 = topology.ATT33
	// ExampleTree13 is the 13-broker tree of the paper's Figure 7.
	ExampleTree13 = topology.Figure7Tree
	// WaxmanOverlay builds a Waxman locality-model random overlay.
	WaxmanOverlay = topology.Waxman
	// RandomOverlay builds a connected random overlay (spanning tree plus
	// extra edges), deterministic per seed.
	RandomOverlay = topology.Random
	// RingOverlay, StarOverlay, GridOverlay build regular overlays.
	RingOverlay = topology.Ring
	StarOverlay = topology.Star
	GridOverlay = topology.Grid
	// TransitStubOverlay builds a GT-ITM-style two-level hierarchy for
	// the 100–1000-broker scaling experiments; TransitStubRegions also
	// returns each broker's region, so a workload can give the brokers of
	// one region shared interests.
	TransitStubOverlay = topology.TransitStub
	TransitStubRegions = topology.TransitStubRegions
	// GeometricOverlay builds a random geometric overlay (radius ≤ 0
	// picks the connectivity threshold).
	GeometricOverlay = topology.RandomGeometric
	// ScaleFreeOverlay builds a Barabási–Albert preferential-attachment
	// overlay (m ≤ 0 defaults to 2).
	ScaleFreeOverlay = topology.PreferentialAttachment
)

// NewGraph returns a graph with n isolated nodes; add edges with AddEdge.
func NewGraph(name string, n int) *Graph { return topology.New(name, n) }

// Live engine.
type (
	// Network is a running broker network.
	Network = core.Network
	// NetworkConfig parametrizes a Network.
	NetworkConfig = core.Config
	// DeliveryFunc receives matched events for a subscription.
	DeliveryFunc = broker.DeliveryFunc
)

// NewNetwork builds and starts a broker network.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return core.New(cfg) }

// DeliveryFactory supplies consumer callbacks for snapshot restoration.
type DeliveryFactory = core.DeliveryFactory

// LoadSnapshot restores a network from a snapshot written by
// Network.SaveSnapshot. The schema comes from the snapshot; run one
// Propagate period afterwards to rebuild multi-broker summaries.
func LoadSnapshot(r io.Reader, cfg NetworkConfig, deliver DeliveryFactory) (*Network, error) {
	return core.LoadSnapshot(r, cfg, deliver)
}

// Deterministic pipeline — the synchronous, instrumented implementations
// of Algorithms 2 and 3 that the experiment harness uses.
type (
	// PropagationResult is the outcome of one Algorithm 2 phase: per-broker
	// merged summaries, Merged_Brokers sets, and full cost accounting.
	PropagationResult = propagation.Result
	// PropagationCost fixes s_st and s_id for the paper's cost equations.
	PropagationCost = propagation.CostModel
	// Router routes events over a propagation result (Algorithm 3).
	Router = routing.Router
	// RouteTrace records the processing of one event.
	RouteTrace = routing.Trace
)

// RunPropagation executes Algorithm 2 deterministically over the overlay,
// where own[i] is broker i's summary, using the Table 2 cost model.
func RunPropagation(g *Graph, own []*Summary) (*PropagationResult, error) {
	return propagation.Run(g, own, propagation.DefaultCostModel())
}

// RunPropagationWithCost is RunPropagation with explicit s_st/s_id sizes.
func RunPropagationWithCost(g *Graph, own []*Summary, cost PropagationCost) (*PropagationResult, error) {
	return propagation.Run(g, own, cost)
}

// NewRouter builds a deterministic Algorithm 3 router over a propagation
// result.
func NewRouter(g *Graph, prop *PropagationResult) (*Router, error) {
	return routing.NewRouter(g, prop)
}

// Workload generation (Section 5.2 / Table 2).
type (
	// WorkloadConfig parametrizes the synthetic generator.
	WorkloadConfig = workload.Config
	// WorkloadGenerator produces subscriptions and events.
	WorkloadGenerator = workload.Generator
)

// DefaultWorkload returns the paper's Table 2 parameters.
func DefaultWorkload() WorkloadConfig { return workload.DefaultConfig() }

// NewWorkload builds a generator (and its schema) from the config.
func NewWorkload(cfg WorkloadConfig) (*WorkloadGenerator, error) {
	return workload.NewGenerator(cfg)
}
