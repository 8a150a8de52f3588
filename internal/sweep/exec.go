// The unit executor: the only place a sweep cell's tests run. Every
// worker kind ends here — in-process LocalWorkers directly, forked stdio
// workers (internal/shard) in the child process, and remote accvd
// workers in the daemon's POST /v1/shard/run — so a unit's results and
// store entries do not depend on which worker ran it.
package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/obs"
	"accv/internal/store"
	"accv/internal/vendors"
)

// ExecOptions configures an Executor. The zero value executes units with
// a private compile cache and a private memo table, opening the store
// directory each Spec names.
type ExecOptions struct {
	// Obs receives the executor's suite telemetry (accv_tests_total and
	// friends) and the telemetry of the stores it opens; nil runs
	// unobserved.
	Obs *obs.Observer
	// Cache, when non-nil, is the shared compiled-program cache (the
	// accvd service passes its own); nil gets a fresh executor-wide one.
	// Version and language are in the key, so sharing is always sound.
	Cache *compiler.Cache
	// Memo, when non-nil, is the shared single-flight memo table; nil
	// gets a fresh executor-wide one. Fingerprints are salted with the
	// effective run configuration, so one table serves heterogeneous
	// Specs safely, and concurrent identical units coalesce through its
	// single-flight entries.
	Memo *core.MemoTable
	// Store, when non-nil, is the fixed persistent result store backing
	// every unit, and Spec.StoreDir is ignored — the accvd service pins
	// its own -store this way so remote clients cannot point the daemon
	// at arbitrary directories.
	Store core.ResultStore
}

// Executor runs units in-process. One Executor per worker process (or
// per daemon, or per in-process sweep): its compile cache, memo table,
// fingerprinters, and opened stores are shared across every unit it
// runs. Safe for concurrent use.
type Executor struct {
	opt   ExecOptions
	cache *compiler.Cache
	memo  *core.MemoTable

	mu     sync.Mutex
	fps    map[string]*Fingerprinter // per config salt
	stores map[string]*store.Store   // per opened StoreDir
}

// NewExecutor builds an executor over the given shared state.
func NewExecutor(opt ExecOptions) *Executor {
	e := &Executor{
		opt:    opt,
		cache:  opt.Cache,
		memo:   opt.Memo,
		fps:    map[string]*Fingerprinter{},
		stores: map[string]*store.Store{},
	}
	if e.cache == nil {
		e.cache = compiler.NewCache()
	}
	if e.memo == nil {
		e.memo = core.NewMemoTable()
	}
	return e
}

// Run executes one unit under its spec and returns the per-slot results.
// Context cancellation (the coordinator's per-unit deadline, a canceled
// request) returns an error — a unit is completed wholesale or not at
// all, so the coordinator can re-dispatch it without partial-merge
// bookkeeping.
func (e *Executor) Run(ctx context.Context, u Unit, spec Spec) (*UnitResult, error) {
	cfg, templates, err := e.unitConfig(u, spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sr, err := core.RunSuiteContext(ctx, cfg, templates)
	if err != nil {
		return nil, fmt.Errorf("sweep: unit %s: %w", u, err)
	}
	return &UnitResult{
		Unit:       u,
		Compiler:   sr.Compiler,
		Version:    sr.Version,
		Results:    sr.Results,
		MemoHits:   sr.MemoHits,
		MemoMisses: sr.MemoMisses,
		StoreHits:  sr.StoreHits,
		DurationMS: time.Since(start).Milliseconds(),
	}, nil
}

// unitConfig resolves the unit's toolchain and template slice and
// attaches the executor's shared state to the cell's core.Config.
func (e *Executor) unitConfig(u Unit, spec Spec) (core.Config, []*core.Template, error) {
	lang, err := ast.ParseLang(u.Lang)
	if err != nil {
		return core.Config{}, nil, err
	}
	tc, err := vendors.New(u.Vendor, u.Version)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg, err := spec.cellConfig(tc)
	if err != nil {
		return core.Config{}, nil, err
	}
	templates := TemplatesFor(spec.Family, lang)
	from, to := u.From, u.To
	if to == 0 || to > len(templates) {
		to = len(templates)
	}
	if from < 0 || from > to {
		return core.Config{}, nil, fmt.Errorf("sweep: unit %s: range outside the %d-template cell", u, len(templates))
	}
	cfg.Obs = e.opt.Obs
	cfg.Cache = e.cache
	if !spec.NoMemo {
		cfg.Memo = e.memo
		cfg.Fingerprint = e.fingerprinter(cfg).For(tc)
		st, err := e.store(spec)
		if err != nil {
			return core.Config{}, nil, err
		}
		cfg.Store = st
	}
	return cfg, templates[from:to], nil
}

// fingerprinter returns the executor's shared fingerprinter for one
// config salt, sharing the pristine-compile cache across every unit and
// version of the same run shape.
func (e *Executor) fingerprinter(cfg core.Config) *Fingerprinter {
	base := cfg
	base.Toolchain = nil // the salt must not depend on the unit's version
	salt := ConfigSalt(base.WithDefaults())
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fps[salt]
	if f == nil {
		f = NewFingerprinter(salt)
		e.fps[salt] = f
	}
	return f
}

// store resolves the unit's persistent result store: the pinned
// ExecOptions.Store when configured, else the (cached) handle for
// Spec.StoreDir, else nil.
func (e *Executor) store(spec Spec) (core.ResultStore, error) {
	if e.opt.Store != nil {
		return e.opt.Store, nil
	}
	if spec.StoreDir == "" {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.stores[spec.StoreDir]; s != nil {
		return s, nil
	}
	s, err := store.Open(spec.StoreDir, store.Options{MaxEntries: spec.StoreCap, Obs: e.opt.Obs})
	if err != nil {
		return nil, err
	}
	e.stores[spec.StoreDir] = s
	return s, nil
}

// LocalWorker runs units directly on an Executor — the default worker
// of Run, and the baseline every other worker kind must be
// indistinguishable from. LocalWorkers sharing one Executor share one
// compile cache, memo table, and store handle.
type LocalWorker struct {
	Exec *Executor
}

// Run executes the unit in-process. Cancellation unwinds cooperatively
// through the core scheduler and comes back as an error, never as a
// partial result.
func (w *LocalWorker) Run(ctx context.Context, u Unit, spec Spec) (*UnitResult, error) {
	return w.Exec.Run(ctx, u, spec)
}

// Close is a no-op; the Executor's state outlives the run on purpose.
func (w *LocalWorker) Close() error { return nil }
