package campaign

import (
	"fmt"
	"math/rand"
)

// Strategy names accepted by Config.Strategy / NewStrategy.
const (
	// StrategyRandom is the Section 8.3 baseline: uniform-random step
	// crashes.
	StrategyRandom = "random"
	// StrategyExhaustive walks the enumerated fault space in order.
	StrategyExhaustive = "exhaustive-site"
	// StrategyCoverage adaptively reinvests budget near sites whose
	// injections produced novel behavior signatures.
	StrategyCoverage = "coverage-guided"
)

// Strategy proposes injection plans and learns from their results. The
// engine calls NextBatch, runs the whole batch (possibly in parallel), and
// feeds the merged results back through Observe — so a strategy adapts only
// at batch boundaries, which is what makes campaigns parallelism-invariant:
// every random decision is drawn before any run of the batch starts.
type Strategy interface {
	// Init is called once before the campaign starts.
	Init(sp *Space, seed int64, budget int)
	// NextBatch proposes up to max plans; an empty batch ends the campaign
	// early (fault space exhausted).
	NextBatch(max int) []Plan
	// Observe feeds back one batch's results, in proposal order.
	Observe(results []RunResult)
}

// NewStrategy builds a registered strategy by name ("" = coverage-guided).
func NewStrategy(name string) (Strategy, error) {
	switch name {
	case StrategyRandom:
		return &randomStrategy{}, nil
	case StrategyExhaustive:
		return &exhaustiveStrategy{}, nil
	case StrategyCoverage, "":
		return &coverageStrategy{}, nil
	}
	return nil, fmt.Errorf("campaign: unknown strategy %q (have %s, %s, %s)",
		name, StrategyRandom, StrategyExhaustive, StrategyCoverage)
}

// StrategyNames lists the registered strategies in comparison-table order.
func StrategyNames() []string {
	return []string{StrategyRandom, StrategyExhaustive, StrategyCoverage}
}

// needsSpace reports whether a strategy samples the site-point fault space
// (and therefore needs a traced fault-free run to enumerate it). The random
// strategy samples raw steps and runs untraced.
func needsSpace(name string) bool { return name != StrategyRandom }

// randomStrategy is the Section 8.3 baseline: all crash steps are drawn up
// front from one seeded RNG stream, so a random campaign's results do not
// depend on batching or parallelism (TestRandomCampaignMatchesReference pins
// the counts against a direct implementation).
type randomStrategy struct {
	steps []int64
	next  int
}

func (s *randomStrategy) Init(sp *Space, seed int64, budget int) {
	rng := rand.New(rand.NewSource(seed * 7919))
	s.steps = make([]int64, budget)
	for i := range s.steps {
		s.steps[i] = 1 + rng.Int63n(sp.BaseSteps)
	}
}

func (s *randomStrategy) NextBatch(max int) []Plan {
	n := len(s.steps) - s.next
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	batch := make([]Plan, n)
	for i := range batch {
		batch[i] = Plan{{CrashStep: s.steps[s.next+i]}}
	}
	s.next += n
	return batch
}

func (s *randomStrategy) Observe([]RunResult) {}

// exhaustiveStrategy walks Space.Points in enumeration order: every site's
// first occurrence (all actions) before any second occurrence, with no
// feedback. It is the "systematic sweep" yardstick between blind-random and
// coverage-guided.
type exhaustiveStrategy struct {
	sp   *Space
	next int
}

func (s *exhaustiveStrategy) Init(sp *Space, seed int64, budget int) { s.sp = sp }

func (s *exhaustiveStrategy) NextBatch(max int) []Plan {
	n := len(s.sp.Points) - s.next
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	batch := append([]Plan(nil), s.sp.Points[s.next:s.next+n]...)
	s.next += n
	return batch
}

func (s *exhaustiveStrategy) Observe([]RunResult) {}

// Coverage-guided tuning knobs.
const (
	coverageRound = 25 // plans per batch between re-weightings
	// Weight multipliers applied to untried points when a run's behavior
	// signature is novel: the point's own site, sites within
	// coverageNeighborhood ordinals, and (weaker) a novel-but-tolerated run.
	boostSameSite  = 8.0
	boostNeighbor  = 3.0
	boostTolerated = 2.0
	// coverageNeighborhood is the site-ordinal radius counted as "near".
	coverageNeighborhood = 2
	// weightCap keeps repeated boosts from overflowing float64.
	weightCap = 1e9
)

// coverageStrategy samples the fault space without replacement (the
// simulator is deterministic, so re-running a plan is pure waste), weighting
// untried points up whenever an injection near them produced a behavior
// signature the corpus had not seen. Sampling uses a seeded RNG and all
// draws for a batch happen before the batch runs, so campaigns replay
// exactly at any parallelism.
type coverageStrategy struct {
	sp      *Space
	rng     *rand.Rand
	weights []float64
	tried   []bool
	ordOf   []int          // point index -> site ordinal
	byKey   map[string]int // plan key -> point index
	left    int            // untried points remaining
}

func (s *coverageStrategy) Init(sp *Space, seed int64, budget int) {
	s.sp = sp
	s.rng = rand.New(rand.NewSource(seed*104729 + 1))
	s.weights = make([]float64, len(sp.Points))
	s.tried = make([]bool, len(sp.Points))
	s.ordOf = make([]int, len(sp.Points))
	s.byKey = make(map[string]int, len(sp.Points))
	for i, p := range sp.Points {
		s.weights[i] = 1
		s.ordOf[i] = sp.SiteOrdinal(p[0].Site)
		s.byKey[p.Key()] = i
	}
	s.left = len(sp.Points)
}

func (s *coverageStrategy) NextBatch(max int) []Plan {
	n := coverageRound
	if n > max {
		n = max
	}
	if n > s.left {
		n = s.left
	}
	if n <= 0 {
		return nil
	}
	batch := make([]Plan, 0, n)
	for k := 0; k < n; k++ {
		var total float64
		for i, w := range s.weights {
			if !s.tried[i] {
				total += w
			}
		}
		r := s.rng.Float64() * total
		pick := -1
		for i, w := range s.weights {
			if s.tried[i] {
				continue
			}
			pick = i
			if r -= w; r < 0 {
				break
			}
		}
		s.tried[pick] = true
		s.left--
		batch = append(batch, s.sp.Points[pick])
	}
	return batch
}

func (s *coverageStrategy) Observe(results []RunResult) {
	for _, res := range results {
		if !res.Novel {
			continue
		}
		idx, ok := s.byKey[res.Plan.Key()]
		if !ok {
			continue
		}
		ord := s.ordOf[idx]
		same, near := boostSameSite, boostNeighbor
		if res.Verdict == VerdictTolerated {
			same, near = boostTolerated, 1
		}
		for i := range s.weights {
			if s.tried[i] {
				continue
			}
			d := s.ordOf[i] - ord
			if d < 0 {
				d = -d
			}
			switch {
			case d == 0:
				s.weights[i] *= same
			case d <= coverageNeighborhood:
				s.weights[i] *= near
			}
			if s.weights[i] > weightCap {
				s.weights[i] = weightCap
			}
		}
	}
}
