// The unit protocol: the work unit, the run-shaping Spec every worker
// applies, and the per-unit result — the values the in-process workers,
// the forked stdio workers and accvd's POST /v1/shard/run all exchange.
package sweep

import (
	"fmt"
	"time"

	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/interp"
)

// Unit is one schedulable slice of the sweep grid: a contiguous template
// range [From, To) of one (vendor, version, lang) cell. The default unit
// is the whole cell (From 0, To = cell size); the coordinator re-splits
// units for straggler mitigation. Seq identifies one dispatch — a stolen
// half-range is a new Unit with a new Seq over the same slots.
type Unit struct {
	Seq     int    `json:"seq"`
	Vendor  string `json:"vendor"`
	Version string `json:"version"`
	Lang    string `json:"lang"` // ast.ParseLang spelling: "c" | "fortran"
	From    int    `json:"from"`
	To      int    `json:"to"`
}

func (u Unit) String() string {
	return fmt.Sprintf("%s-%s-%s[%d:%d)", u.Vendor, u.Version, u.Lang, u.From, u.To)
}

// rangeKey identifies the slot range a unit covers, independent of the
// dispatch Seq — the retry budget is per range, not per dispatch.
func (u Unit) rangeKey() string {
	return fmt.Sprintf("%s/%s/%s/%d/%d", u.Vendor, u.Version, u.Lang, u.From, u.To)
}

// Spec is the run-shaping configuration every worker must apply
// identically — the Options fields minus the grid and the dispatch
// policy. Two workers given the same Spec produce interchangeable
// results for the same unit, and (because fingerprints are salted with
// exactly these fields, not with Parallelism) store entries
// interchangeable with any other sweep under the same flags.
type Spec struct {
	Family         string `json:"family,omitempty"`
	Iterations     int    `json:"iterations,omitempty"`
	TimeoutMS      int64  `json:"timeout_ms,omitempty"`
	Vet            string `json:"vet,omitempty"`    // core.ParseVetPolicy spelling
	Engine         string `json:"engine,omitempty"` // interp.ParseEngine spelling
	RetryAttempts  int    `json:"retry_attempts,omitempty"`
	RetryBackoffMS int64  `json:"retry_backoff_ms,omitempty"`
	FailFast       bool   `json:"fail_fast,omitempty"`
	// Parallelism is the worker's inner core-scheduler width per unit
	// (0: 1). It is deliberately absent from the fingerprint salt, so
	// sweeps of any width and sharding share one store soundly.
	Parallelism int `json:"parallelism,omitempty"`
	// NoMemo disables fingerprint memoization inside the worker (the
	// differential-testing baseline).
	NoMemo bool `json:"no_memo,omitempty"`
	// StoreDir, when non-empty, is the shared persistent result store
	// every worker warms from and writes through (docs/STORE.md). An
	// Executor with a pinned ExecOptions.Store — accvd's — ignores it.
	StoreDir string `json:"store_dir,omitempty"`
	StoreCap int    `json:"store_cap,omitempty"`
}

// cellConfig is the one mapping from a sweep's run shape onto the
// core.Config of a cell under toolchain tc. The Executor adds only its
// shared state (cache, memo, fingerprints, store, observer).
func (s Spec) cellConfig(tc compiler.Toolchain) (core.Config, error) {
	vet, err := core.ParseVetPolicy(s.Vet)
	if err != nil {
		return core.Config{}, err
	}
	engine, err := interp.ParseEngine(s.Engine)
	if err != nil {
		return core.Config{}, err
	}
	// SetVet mutates vendor options, so it is applied eagerly: the
	// fingerprint semantics key must never see a half-configured
	// toolchain.
	if vet == core.VetOff {
		if vc, ok := tc.(compiler.VetConfigurable); ok {
			vc.SetVet(compiler.VetOff)
		}
	}
	cfg := core.Config{
		Toolchain:  tc,
		Iterations: s.Iterations,
		Timeout:    msDuration(s.TimeoutMS),
		Workers:    max(s.Parallelism, 1),
		Vet:        vet,
		Engine:     engine,
		FailFast:   s.FailFast,
	}
	if s.RetryAttempts > 0 {
		cfg.Retry = core.RetryPolicy{
			Attempts: s.RetryAttempts,
			Backoff:  msDuration(s.RetryBackoffMS),
		}
	}
	return cfg, nil
}

// Validate rejects a spec no worker could run: an unknown vet or engine
// spelling, or settings core.Config.Validate refuses.
func (s Spec) Validate() error {
	// The reference compiler stands in for the per-cell toolchain, which
	// only the unit names.
	cfg, err := s.cellConfig(compiler.NewReference())
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// UnitResult is one completed unit: the per-template results for the
// unit's slots, in slot order, plus the worker-local memo telemetry.
type UnitResult struct {
	Unit       Unit              `json:"unit"`
	Compiler   string            `json:"compiler"`
	Version    string            `json:"version"`
	Results    []core.TestResult `json:"results"`
	MemoHits   int               `json:"memo_hits"`
	MemoMisses int               `json:"memo_misses"`
	StoreHits  int               `json:"store_hits"`
	DurationMS int64             `json:"duration_ms"`
}

// RunRequest is the wire form of one unit dispatch — the stdio worker
// protocol and the accvd POST /v1/shard/run endpoint both speak it.
type RunRequest struct {
	Unit Unit `json:"unit"`
	Spec Spec `json:"spec"`
}

func msDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }
