package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"fcatch/internal/sim"
)

// RunResult is the outcome of executing one plan.
type RunResult struct {
	Plan    Plan      `json:"plan"`
	Sig     Signature `json:"signature"`
	Verdict string    `json:"verdict"`
	// Novel is set by the engine when the behavior key had not been seen by
	// any earlier run of the campaign (in run order).
	Novel bool `json:"novel,omitempty"`
}

// Entry is one corpus line: what was injected, what happened, whether it was
// new.
type Entry struct {
	Index int `json:"index"`
	RunResult
}

// CorpusVersion is the one corpus schema this build writes and reads: every
// plan is a JSON array of fault events. Every corpus is stamped with it and
// any other version — absent, older, newer — is refused at load.
const CorpusVersion = 3

// Corpus is the persistent record of a campaign: every (plan, signature,
// verdict) in run order, plus the campaign's identity. Saving and reloading
// it lets a campaign stop, resume (the engine replays the cached prefix
// instead of re-running it), and be diffed against another campaign.
type Corpus struct {
	Version   int      `json:"version"`
	Workload  string   `json:"workload"`
	Strategy  string   `json:"strategy"`
	Seed      int64    `json:"seed"`
	Scenarios []string `json:"scenarios,omitempty"`
	Entries   []Entry  `json:"entries"`

	seenBehavior map[string]bool
}

// NewCorpus returns an empty corpus for one campaign identity.
func NewCorpus(workload, strategy string, seed int64) *Corpus {
	return &Corpus{Version: CorpusVersion, Workload: workload, Strategy: strategy, Seed: seed,
		seenBehavior: map[string]bool{}}
}

// add appends a run in order, stamping novelty against the behaviors seen so
// far, and returns whether the behavior was novel.
func (c *Corpus) add(r RunResult) bool {
	if c.seenBehavior == nil {
		c.rebuild()
	}
	key := r.Sig.BehaviorKey()
	novel := !c.seenBehavior[key]
	c.seenBehavior[key] = true
	r.Novel = novel
	c.Entries = append(c.Entries, Entry{Index: len(c.Entries), RunResult: r})
	return novel
}

func (c *Corpus) rebuild() {
	c.seenBehavior = make(map[string]bool, len(c.Entries))
	for _, e := range c.Entries {
		c.seenBehavior[e.Sig.BehaviorKey()] = true
	}
}

// DistinctFailures counts runs per failure symptom, excluding expected
// reactions — the strategy-comparison metric, measured identically for every
// strategy.
func (c *Corpus) DistinctFailures() map[string]int {
	out := map[string]int{}
	for _, e := range c.Entries {
		if e.Verdict == VerdictFailure {
			out[e.Sig.Symptom]++
		}
	}
	return out
}

// NovelBehaviors counts entries whose behavior key was unseen when they ran.
func (c *Corpus) NovelBehaviors() int {
	n := 0
	for _, e := range c.Entries {
		if e.Novel {
			n++
		}
	}
	return n
}

// Save writes the corpus as indented JSON.
func (c *Corpus) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCorpus reads a corpus written by Save.
func LoadCorpus(path string) (*Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := DecodeCorpus(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return c, nil
}

// DecodeCorpus parses and validates corpus bytes — the trust boundary for
// corpus files. The schema version is checked before anything is used, so a
// retired or newer schema is refused by number instead of being misread;
// then every entry must sit at its own index and carry a valid, non-empty
// plan (sim.ValidateScenario), so nothing a resume replays or a diff counts
// came from a malformed file.
func DecodeCorpus(data []byte) (*Corpus, error) {
	c := &Corpus{}
	err := json.Unmarshal(data, c)
	// A value of the wrong JSON shape — a retired schema's plan object — is
	// a type error, which Unmarshal reports only after decoding everything
	// else: the version is known, and is the error to name.
	var shape *json.UnmarshalTypeError
	if err == nil || errors.As(err, &shape) {
		if verr := checkVersion(c.Version); verr != nil {
			return nil, verr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: corpus: %w", err)
	}
	for i := range c.Entries {
		e := &c.Entries[i]
		if e.Index != i {
			return nil, fmt.Errorf("campaign: corpus entry %d carries index %d", i, e.Index)
		}
		if err := sim.ValidateScenario(e.Plan); err != nil {
			return nil, fmt.Errorf("campaign: corpus entry %d: %w", i, err)
		}
	}
	c.rebuild()
	return c, nil
}

// checkVersion refuses every corpus schema but the current one, by number.
func checkVersion(v int) error {
	if v != CorpusVersion {
		return fmt.Errorf("campaign: corpus has schema version %d, this build reads only version %d", v, CorpusVersion)
	}
	return nil
}

// Diff describes how two campaigns' findings differ.
type Diff struct {
	// OnlyA / OnlyB are failure symptoms found by exactly one campaign,
	// sorted.
	OnlyA []string
	OnlyB []string
	// Shared are symptoms both found, sorted.
	Shared []string
}

// DiffCorpora compares the distinct failure symptoms of two campaigns.
func DiffCorpora(a, b *Corpus) Diff {
	fa, fb := a.DistinctFailures(), b.DistinctFailures()
	var d Diff
	for s := range fa {
		if _, ok := fb[s]; ok {
			d.Shared = append(d.Shared, s)
		} else {
			d.OnlyA = append(d.OnlyA, s)
		}
	}
	for s := range fb {
		if _, ok := fa[s]; !ok {
			d.OnlyB = append(d.OnlyB, s)
		}
	}
	sort.Strings(d.OnlyA)
	sort.Strings(d.OnlyB)
	sort.Strings(d.Shared)
	return d
}
