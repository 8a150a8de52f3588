// Package sweep runs cross-version validation sweeps — the paper's §V
// evaluation workload (Table I, Fig. 8): one suite per (version × lang)
// cell of a vendor family. Run is the one sweep executor. Its coordinator
// (coordinator.go) queues one work unit per cell, dispatches units to
// workers — in-process LocalWorkers by default, forked or remote ones
// from internal/shard on request — and merges the results into
// template-index slots. Every unit runs on an Executor (exec.go), which
// computes a behavioral fingerprint per (cell, template)
// (fingerprint.go) and shares one execution per distinct fingerprint
// through a single-flight core.MemoTable, so a template whose compiled
// behavior does not change between two releases executes once. Reports
// rendered from a memoized sweep are byte-identical to a naive
// per-version loop (sweep_differential_test.go holds that line).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"accv/internal/ast"
	"accv/internal/core"
	"accv/internal/interp"
	"accv/internal/obs"
	"accv/internal/vendors"
)

// Options parameterizes a sweep. The zero value sweeps the C templates
// with the core defaults on GOMAXPROCS in-process workers.
type Options struct {
	// Langs selects the languages (default: C only). Each language is a
	// column of cells across every version.
	Langs []ast.Lang
	// Family restricts the template set (empty: the full 1.0 registry).
	Family string
	// Parallelism is the total worker budget, the -j of accval. It is
	// split evenly across the workers and becomes each worker's core
	// scheduler width per unit. Zero means GOMAXPROCS for in-process
	// workers and each worker's own default when Workers is set.
	Parallelism int
	// Iterations, Timeout, Vet, Engine, Retry, FailFast mirror core.Config
	// and apply to every cell identically (a sweep varies the version,
	// nothing else). Timeout and Retry.Backoff travel to workers in whole
	// milliseconds, and Retry always classifies with core's default
	// (TransientlyFlaky). FailFast is per unit: a failure cancels that
	// cell's remaining tests, not the other cells.
	Iterations int
	Timeout    time.Duration
	Vet        core.VetPolicy
	Engine     interp.Engine
	Retry      core.RetryPolicy
	FailFast   bool
	// Obs receives the coordinator telemetry — accv_shard_* and the
	// per-cell accv_sweep_saved_runs gauge (docs/OBSERVABILITY.md) — and,
	// through the default Executor, the per-cell suite telemetry.
	Obs *obs.Observer
	// NoMemo disables fingerprint memoization: every cell runs naively.
	// This is the differential-testing baseline; it is never faster.
	NoMemo bool
	// Exec is the executor in-process workers run on, with its compile
	// cache, memo table, and store shared across every sweep it serves
	// (the accvd service keeps one). Nil builds a fresh one observed by
	// Obs.
	Exec *Executor
	// StoreDir, when non-empty (and NoMemo is false), is the persistent
	// result store (internal/store) the sweep warms from before executing
	// anything and writes every verdict through, so repeated sweeps
	// across processes and CI jobs start warm. StoreCap bounds it (0:
	// the store default). An Exec with a pinned store ignores both.
	StoreDir string
	StoreCap int

	// Workers, when set, replace the in-process pool: the coordinator
	// dispatches to them (forked or remote workers, internal/shard),
	// takes ownership, and closes them — and any respawned replacements —
	// when Run returns.
	Workers []Worker
	// Factory replaces workers that fail with ErrWorkerDown. Nil means a
	// crashed worker's slot is simply retired; the run still completes
	// on the surviving workers.
	Factory Factory
	// UnitDeadline bounds one unit dispatch (0: none). A unit past its
	// deadline is re-queued against its retry budget.
	UnitDeadline time.Duration
	// Retries is the per-unit re-dispatch budget after failures
	// (default 3; negative: none). Exhausting it fails the run.
	Retries int
	// StealAfter is how long a unit must be in flight before an idle
	// worker may steal (re-split) it (0: default 2s; negative: stealing
	// disabled). The in-process pool never steals.
	StealAfter time.Duration
	// MinSteal is the smallest in-flight template range worth splitting
	// (default 8; a range below 2×MinSteal is never split).
	MinSteal int
	// Versions restricts the sweep to a subset of the vendor's releases
	// (tests and partial re-runs; empty: all of them).
	Versions []string
}

// spec is the run shape every worker applies: the Options fields that
// shape a cell's results.
func (o Options) spec() Spec {
	s := Spec{
		Family:     o.Family,
		Iterations: o.Iterations,
		TimeoutMS:  o.Timeout.Milliseconds(),
		Vet:        o.Vet.String(),
		Engine:     o.Engine.String(),
		FailFast:   o.FailFast,
		NoMemo:     o.NoMemo,
		StoreDir:   o.StoreDir,
		StoreCap:   o.StoreCap,
	}
	if o.Retry.Attempts > 0 {
		s.RetryAttempts = o.Retry.Attempts
		s.RetryBackoffMS = o.Retry.Backoff.Milliseconds()
	}
	return s
}

// Result is a completed sweep: the per-cell suite results in
// deterministic (version-major, lang-minor) order plus memo telemetry.
type Result struct {
	Vendor   string
	Versions []string
	Langs    []ast.Lang
	// Cells holds one SuiteResult per (version, lang): Cells[vi][li] is
	// Versions[vi] run over the Langs[li] template set.
	Cells [][]*core.SuiteResult
	// MemoHits is the number of test executions the memo table saved;
	// MemoMisses is the number actually executed. Both are sums of this
	// sweep's per-unit counters, so concurrent sweeps sharing one memo
	// table never count each other's traffic, and both are zero under
	// NoMemo.
	MemoHits, MemoMisses int64
	// StoreHits is the number of tests served from the persistent result
	// store — executions some earlier process already paid for. Disjoint
	// from MemoHits and MemoMisses; zero without a store.
	StoreHits int64
	Duration  time.Duration
}

// Run sweeps every simulated version of a vendor family ("caps", "pgi",
// "cray") across the selected languages. Without Options.Workers it runs
// min(Parallelism, cells) in-process LocalWorkers over one Executor,
// each with an equal share of the budget and no work stealing. On
// cancellation of ctx, or when every worker is gone, the result is still
// returned: slots no unit filled hold Canceled results, and err says why
// (ctx.Err() on cancellation).
func Run(ctx context.Context, vendor string, opts Options) (*Result, error) {
	versions := vendors.All()[vendor]
	if len(versions) == 0 {
		return nil, fmt.Errorf("sweep: no simulated versions for compiler %q (use caps, pgi, or cray)", vendor)
	}
	if len(opts.Versions) > 0 {
		versions = opts.Versions
	}
	langs := opts.Langs
	if len(langs) == 0 {
		langs = []ast.Lang{ast.LangC}
	}
	spec := opts.spec()
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	workers, par := opts.Workers, opts.Parallelism
	if len(workers) == 0 {
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		ex := opts.Exec
		if ex == nil {
			ex = NewExecutor(ExecOptions{Obs: opts.Obs})
		}
		if !spec.NoMemo {
			// Open the store up front: a bad directory is a usage error,
			// not a unit failure to retry.
			if _, err := ex.store(spec); err != nil {
				return nil, err
			}
		}
		for range min(par, len(versions)*len(langs)) {
			workers = append(workers, &LocalWorker{Exec: ex})
		}
		opts.StealAfter = -1
	}
	if par > 0 {
		spec.Parallelism = max(par/len(workers), 1)
	}
	return coordinate(ctx, vendor, versions, langs, spec, workers, opts)
}

// TemplatesFor returns the template set one sweep cell runs — one
// family's slice, or the whole 1.0 registry for the language. Work units
// index into exactly this order.
func TemplatesFor(family string, lang ast.Lang) []*core.Template {
	if family != "" {
		return core.ByFamily(family, lang)
	}
	return core.ByLang(lang)
}
