package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/subsum/subsum/internal/schema"
)

// LifetimeDist selects how long a churned subscription stays live.
type LifetimeDist int

const (
	// LifetimeGeometric draws lifetimes from a geometric distribution with
	// mean MeanLifetime periods (memoryless churn: each live subscription
	// has the same per-period probability of leaving).
	LifetimeGeometric LifetimeDist = iota
	// LifetimeFixed retires every subscription after exactly
	// round(MeanLifetime) periods (a sliding-window workload).
	LifetimeFixed
)

// ChurnConfig parametrizes a sustained subscribe/unsubscribe stream.
type ChurnConfig struct {
	// Rate is the number of new subscriptions per propagation period.
	Rate int
	// MeanLifetime is the average number of periods a subscription stays
	// live (≥ 1). Steady-state live count converges to Rate*MeanLifetime.
	MeanLifetime float64
	// Dist selects the lifetime distribution.
	Dist LifetimeDist
	// Seed makes the lifetime stream deterministic (subscription content
	// determinism comes from the Generator's own seed).
	Seed int64
}

// Validate checks the churn configuration.
func (c ChurnConfig) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("workload: churn rate must be positive, got %d", c.Rate)
	}
	if c.MeanLifetime < 1 {
		return fmt.Errorf("workload: mean lifetime must be ≥ 1 period, got %g", c.MeanLifetime)
	}
	return nil
}

// ChurnSub is one newly-born subscription with the opaque handle its
// death will later be reported under.
type ChurnSub struct {
	Handle int
	Sub    *schema.Subscription
}

// ChurnPeriod is one period's worth of churn: subscriptions to register
// and handles of previously-born subscriptions to retire. Deaths never
// include same-period births (minimum lifetime is one period).
type ChurnPeriod struct {
	Born []ChurnSub
	Died []int
}

// Churn produces a deterministic subscribe/unsubscribe stream over a
// Generator's subscription distribution: Rate births per period, each
// with a lifetime drawn from the configured distribution. The live
// population ramps up and then holds at ~Rate*MeanLifetime, which is what
// makes it the steady-state workload for retraction propagation — remote
// summary state must plateau with the live count, not grow with the total
// churned count.
type Churn struct {
	g      *Generator
	cfg    ChurnConfig
	rng    *rand.Rand
	period int
	next   int           // next handle
	live   int           // currently live subscriptions
	deaths map[int][]int // period -> handles dying then
}

// NewChurn builds a churn stream drawing subscriptions from g.
func NewChurn(g *Generator, cfg ChurnConfig) (*Churn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Churn{
		g:      g,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		deaths: make(map[int][]int),
	}, nil
}

// Live returns the number of currently live subscriptions. A test hook:
// the workload tests check the stream converges with it.
func (c *Churn) Live() int { return c.live }

// Period advances one propagation period: it returns the handles dying
// this period (sorted, from earlier births) and Rate fresh subscriptions,
// each scheduled for a future death.
func (c *Churn) Period() ChurnPeriod {
	var p ChurnPeriod
	p.Died = c.deaths[c.period]
	delete(c.deaths, c.period)
	sort.Ints(p.Died)
	c.live -= len(p.Died)
	p.Born = make([]ChurnSub, 0, c.cfg.Rate)
	for i := 0; i < c.cfg.Rate; i++ {
		h := c.next
		c.next++
		die := c.period + c.lifetime()
		c.deaths[die] = append(c.deaths[die], h)
		p.Born = append(p.Born, ChurnSub{Handle: h, Sub: c.g.Subscription()})
	}
	c.live += c.cfg.Rate
	c.period++
	return p
}

// lifetime draws one lifetime in periods (always ≥ 1).
func (c *Churn) lifetime() int {
	switch c.cfg.Dist {
	case LifetimeFixed:
		l := int(c.cfg.MeanLifetime + 0.5)
		if l < 1 {
			l = 1
		}
		return l
	default:
		// Geometric with mean MeanLifetime: leave with probability
		// 1/MeanLifetime each period after the first.
		l := 1
		for c.rng.Float64() > 1/c.cfg.MeanLifetime {
			l++
		}
		return l
	}
}
