// The coordinator: unit queue, dispatch loop, failure handling (deadline,
// bounded retry, crash re-queue + respawn), work stealing, and the
// deterministic order-independent merge back into a Result.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"accv/internal/ast"
	"accv/internal/core"
	"accv/internal/obs"
	"accv/internal/vendors"
)

// Worker executes one unit at a time for the coordinator. Run must
// return an error (never a partial result) when the unit did not
// complete; an error wrapping ErrWorkerDown additionally tells the
// coordinator the worker itself is unusable and should be replaced
// through the Factory.
type Worker interface {
	Run(ctx context.Context, u Unit, spec Spec) (*UnitResult, error)
	Close() error
}

// ErrWorkerDown marks a worker-fatal failure (the subprocess died, the
// deadline forced a kill): the unit is re-queued and the worker replaced.
var ErrWorkerDown = errors.New("worker down")

// Factory builds a replacement worker after a crash. A nil factory
// retires crashed workers' dispatch slots instead.
type Factory func() (Worker, error)

// coordinate fans the grid's cell units out over the workers and merges
// their results. Options supplies the dispatch policy; spec is what every
// worker runs.
func coordinate(ctx context.Context, vendor string, versions []string, langs []ast.Lang,
	spec Spec, workers []Worker, opts Options) (*Result, error) {
	if opts.Retries == 0 {
		opts.Retries = 3
	}
	if opts.StealAfter == 0 {
		opts.StealAfter = 2 * time.Second
	}
	if opts.MinSteal <= 0 {
		opts.MinSteal = 8
	}
	c := &coord{spec: spec, opts: opts, obs: opts.Obs}
	c.cond = sync.NewCond(&c.mu)
	if err := c.init(vendor, versions, langs); err != nil {
		return nil, err
	}

	// Dispatchers block in cond.Wait while idle; cancellation and the
	// steal clock both arrive as broadcasts.
	stopCancel := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.canceled = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer stopCancel()
	if opts.StealAfter > 0 {
		tick := time.NewTicker(max(opts.StealAfter/2, 10*time.Millisecond))
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-tick.C:
					c.cond.Broadcast()
				case <-done:
					return
				}
			}
		}()
		defer tick.Stop()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		c.workerGauge(1)
		go func(w Worker) {
			defer wg.Done()
			defer c.workerGauge(-1)
			c.dispatch(ctx, w)
		}(w)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Duration = time.Since(start)
	if c.err == nil && ctx.Err() != nil {
		c.err = ctx.Err()
	}
	if c.err == nil && c.remaining > 0 {
		c.err = fmt.Errorf("sweep: %d result slots unfilled with no workers left", c.remaining)
	}
	c.cancelUnfilled()
	return c.res, c.err
}

// coord is the shared dispatch state; every field below mu is guarded by
// it, and cond broadcasts on every state change.
type coord struct {
	spec Spec
	opts Options
	obs  *obs.Observer

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []Unit
	inflight  map[int]*flight
	nextSeq   int
	retries   map[string]int
	langIdx   map[string]int
	verIdx    map[string]int
	templates [][]*core.Template // per lang index
	filled    [][][]bool
	remaining int
	workers   int
	res       *Result
	err       error
	canceled  bool
}

type flight struct {
	unit  Unit
	start time.Time
	split bool
}

// init builds the result skeleton (cell metadata prefilled so even
// never-dispatched empty cells match core.RunSuite's shape) and the
// initial one-unit-per-cell queue.
func (c *coord) init(vendor string, versions []string, langs []ast.Lang) error {
	c.inflight = map[int]*flight{}
	c.retries = map[string]int{}
	c.verIdx = map[string]int{}
	c.langIdx = map[string]int{}
	c.templates = make([][]*core.Template, len(langs))
	for li, lang := range langs {
		c.langIdx[lang.String()] = li
		c.templates[li] = TemplatesFor(c.spec.Family, lang)
	}
	c.res = &Result{Vendor: vendor, Versions: versions, Langs: langs}
	c.res.Cells = make([][]*core.SuiteResult, len(versions))
	c.filled = make([][][]bool, len(versions))
	for vi, ver := range versions {
		c.verIdx[ver] = vi
		c.res.Cells[vi] = make([]*core.SuiteResult, len(langs))
		c.filled[vi] = make([][]bool, len(langs))
		tc, err := vendors.New(vendor, ver)
		if err != nil {
			return err
		}
		for li, lang := range langs {
			n := len(c.templates[li])
			cellLang := lang
			if n == 0 {
				cellLang = ast.Lang(-1) // core.suiteLang's empty-set value
			}
			c.res.Cells[vi][li] = &core.SuiteResult{
				Compiler: tc.Name(),
				Version:  tc.Version(),
				Lang:     cellLang,
				Results:  make([]core.TestResult, n),
			}
			c.filled[vi][li] = make([]bool, n)
			c.remaining += n
			if n > 0 {
				c.queue = append(c.queue, Unit{
					Seq: c.nextSeq, Vendor: vendor, Version: ver,
					Lang: lang.String(), From: 0, To: n,
				})
				c.nextSeq++
			}
		}
	}
	return nil
}

// dispatch is one worker's loop: claim a unit (or steal one), run it,
// merge or re-queue, until the grid is filled or the run fails. A
// worker-fatal error retires this slot unless the factory can respawn.
func (c *coord) dispatch(ctx context.Context, w Worker) {
	defer func() { w.Close() }()
	for {
		u, ok := c.next()
		if !ok {
			return
		}
		runCtx, cancel := ctx, context.CancelFunc(func() {})
		if c.opts.UnitDeadline > 0 {
			runCtx, cancel = context.WithTimeout(ctx, c.opts.UnitDeadline)
		}
		res, err := w.Run(runCtx, u, c.spec)
		cancel()
		if err == nil && res != nil {
			c.complete(u, res)
			continue
		}
		if err == nil {
			err = errors.New("worker returned no result")
		}
		if ctx.Err() != nil {
			// The run itself was canceled: the unit failed because of
			// that, not on its own, so it spends no retry budget.
			c.fail(ctx.Err())
			return
		}
		c.requeue(u, err)
		if errors.Is(err, ErrWorkerDown) {
			w.Close()
			if c.opts.Factory == nil {
				return
			}
			nw, ferr := c.opts.Factory()
			if ferr != nil {
				c.fail(fmt.Errorf("sweep: respawning worker: %w", ferr))
				return
			}
			w = nw
		}
	}
}

// next blocks until a unit is available (from the queue or by stealing),
// the grid completes, or the run fails/cancels. It registers the flight
// and counts the dispatch.
func (c *coord) next() (Unit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.err != nil || c.canceled || c.remaining == 0 {
			c.cond.Broadcast()
			return Unit{}, false
		}
		for len(c.queue) > 0 {
			u := c.queue[0]
			c.queue = c.queue[1:]
			if !c.coversUnfilled(u) {
				continue // a speculative twin already filled every slot
			}
			return c.launch(u), true
		}
		if u, ok := c.steal(); ok {
			return c.launch(u), true
		}
		c.cond.Wait()
	}
}

// launch registers a flight for u. Caller holds mu.
func (c *coord) launch(u Unit) Unit {
	c.inflight[u.Seq] = &flight{unit: u, start: time.Now()}
	c.count("accv_shard_units_dispatched_total")
	return u
}

// coversUnfilled reports whether any of u's slots still needs a result.
// Caller holds mu.
func (c *coord) coversUnfilled(u Unit) bool {
	vi, li, ok := c.cellOf(u)
	if !ok {
		return false
	}
	for i := u.From; i < u.To && i < len(c.filled[vi][li]); i++ {
		if !c.filled[vi][li][i] {
			return true
		}
	}
	return false
}

// steal re-splits the slowest eligible in-flight unit: the thief takes
// the upper half of its range as a new unit, the victim keeps computing
// the whole range, and the first result to land in each slot wins. One
// split per flight — the halves are themselves stealable once in flight.
// Caller holds mu.
func (c *coord) steal() (Unit, bool) {
	if c.opts.StealAfter < 0 {
		return Unit{}, false
	}
	now := time.Now()
	var victim *flight
	for _, f := range c.inflight {
		if f.split || f.unit.To-f.unit.From < 2*c.opts.MinSteal {
			continue
		}
		if now.Sub(f.start) < c.opts.StealAfter {
			continue
		}
		if victim == nil || f.start.Before(victim.start) {
			victim = f
		}
	}
	if victim == nil {
		return Unit{}, false
	}
	victim.split = true
	u := victim.unit
	u.Seq = c.nextSeq
	c.nextSeq++
	u.From = (victim.unit.From + victim.unit.To) / 2
	if !c.coversUnfilled(u) {
		return Unit{}, false
	}
	c.count("accv_shard_units_stolen_total")
	return u, true
}

// complete merges one finished unit: results land in their template-
// index slots, first write wins, so the merge is deterministic however
// dispatch and completion interleave (and speculative duplicates from
// stealing are discarded slot-wise). The memo and store counters are the
// units' own, so concurrent sweeps over one shared memo table never
// count each other's traffic.
func (c *coord) complete(u Unit, res *UnitResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cond.Broadcast()
	delete(c.inflight, u.Seq)
	c.count("accv_shard_units_completed_total")
	vi, li, ok := c.cellOf(u)
	if !ok {
		return
	}
	cell := c.res.Cells[vi][li]
	for i := range res.Results {
		idx := u.From + i
		if idx >= len(cell.Results) || c.filled[vi][li][idx] {
			continue
		}
		cell.Results[idx] = res.Results[i]
		c.filled[vi][li][idx] = true
		c.remaining--
	}
	cell.MemoHits += res.MemoHits
	cell.MemoMisses += res.MemoMisses
	cell.StoreHits += res.StoreHits
	cell.Duration += msDuration(res.DurationMS)
	c.res.MemoHits += int64(res.MemoHits)
	c.res.MemoMisses += int64(res.MemoMisses)
	c.res.StoreHits += int64(res.StoreHits)
	if c.obs != nil {
		c.obs.SetGauge("accv_sweep_saved_runs", float64(cell.MemoHits),
			obs.L("compiler", c.res.Vendor),
			obs.L("version", c.res.Versions[vi]),
			obs.L("lang", c.res.Langs[li].String()))
	}
}

// requeue returns a failed unit to the queue against its retry budget;
// an exhausted budget fails the whole run (the grid cannot complete).
func (c *coord) requeue(u Unit, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cond.Broadcast()
	delete(c.inflight, u.Seq)
	if c.err != nil || c.canceled || !c.coversUnfilled(u) {
		return
	}
	key := u.rangeKey()
	c.retries[key]++
	c.count("accv_shard_units_retried_total")
	if c.retries[key] > c.opts.Retries {
		if c.err == nil {
			c.err = fmt.Errorf("sweep: unit %s failed after %d dispatches: %w", u, c.retries[key], cause)
		}
		return
	}
	c.queue = append(c.queue, u)
}

func (c *coord) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// cancelUnfilled marks every slot no unit filled as Canceled, named after
// its template, so an interrupted or failed sweep never reports a zero
// TestResult — a nameless Pass — for a test that did not run. Caller
// holds mu.
func (c *coord) cancelUnfilled() {
	for vi := range c.filled {
		for li, filled := range c.filled[vi] {
			for i, ok := range filled {
				if ok {
					continue
				}
				tpl := c.templates[li][i]
				c.res.Cells[vi][li].Results[i] = core.TestResult{
					Name: tpl.Name, Lang: tpl.Lang, Family: tpl.Family,
					Description: tpl.Description,
					Outcome:     core.Canceled,
					Detail:      "sweep stopped before the test completed",
				}
			}
		}
	}
}

func (c *coord) cellOf(u Unit) (vi, li int, ok bool) {
	vi, vok := c.verIdx[u.Version]
	li, lok := c.langIdx[u.Lang]
	return vi, li, vok && lok
}

func (c *coord) count(name string) {
	if c.obs != nil {
		c.obs.Add(name, 1)
	}
}

func (c *coord) workerGauge(d int) {
	c.mu.Lock()
	c.workers += d
	n := c.workers
	c.mu.Unlock()
	if c.obs != nil {
		c.obs.SetGauge("accv_shard_workers", float64(n))
	}
}
