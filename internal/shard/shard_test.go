// The sharded sweep's correctness suite: differential identity against
// the in-process sweep, the stdio worker protocol (including a real
// mid-sweep SIGKILL), deadline + bounded-retry exhaustion, work stealing,
// and the telemetry contract for the accv_shard_* series.
package shard

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"accv/internal/ast"
	"accv/internal/core"
	"accv/internal/obs"
	"accv/internal/sweep"
	_ "accv/internal/templates" // register the 1.0 corpus
	"accv/internal/vendors"
)

// normalizeCell strips wall-clock durations and the scheduling telemetry
// (memo/store counters are explicitly not results — the report renderers
// ignore them) so sharded and unsharded cells compare on verdicts alone.
func normalizeCell(sr *core.SuiteResult) *core.SuiteResult {
	if sr == nil {
		return nil
	}
	out := *sr
	out.Duration = 0
	out.MemoHits, out.MemoMisses, out.StoreHits = 0, 0, 0
	out.Results = append([]core.TestResult(nil), sr.Results...)
	for i := range out.Results {
		out.Results[i].Duration = 0
	}
	return &out
}

// requireSameSweep asserts two sweep results are identical in everything
// the renderers (Fig. 8 table, CSV, snapshots) can observe.
func requireSameSweep(t *testing.T, want, got *sweep.Result) {
	t.Helper()
	if got.Vendor != want.Vendor {
		t.Fatalf("vendor %q, want %q", got.Vendor, want.Vendor)
	}
	if !reflect.DeepEqual(got.Versions, want.Versions) {
		t.Fatalf("versions %v, want %v", got.Versions, want.Versions)
	}
	if !reflect.DeepEqual(got.Langs, want.Langs) {
		t.Fatalf("langs %v, want %v", got.Langs, want.Langs)
	}
	for vi := range want.Cells {
		for li := range want.Cells[vi] {
			w, g := normalizeCell(want.Cells[vi][li]), normalizeCell(got.Cells[vi][li])
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("cell [%s][%s] diverged between sharded and unsharded sweep",
					want.Versions[vi], want.Langs[li])
			}
		}
	}
}

// TestShardedSweepMatchesUnsharded is the acceptance differential: for
// every vendor and both languages, the coordinator's merged result is
// indistinguishable from sweep.Run's.
func TestShardedSweepMatchesUnsharded(t *testing.T) {
	langs := []ast.Lang{ast.LangC, ast.LangFortran}
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		vendor := vendor
		t.Run(vendor, func(t *testing.T) {
			t.Parallel()
			want, err := sweep.Run(context.Background(), vendor, sweep.Options{
				Langs: langs, Iterations: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			ex := sweep.NewExecutor(sweep.ExecOptions{})
			got, err := sweep.Run(context.Background(), vendor, sweep.Options{
				Langs: langs, Iterations: 1,
				Workers: []sweep.Worker{
					&sweep.LocalWorker{Exec: ex}, &sweep.LocalWorker{Exec: ex}, &sweep.LocalWorker{Exec: ex},
				}})
			if err != nil {
				t.Fatal(err)
			}
			requireSameSweep(t, want, got)
		})
	}
}

const helperEnv = "ACCV_SHARD_WORKER_HELPER"

// TestShardWorkerHelper is not a test: it is the stdio worker subprocess
// the proc tests re-exec this test binary into (the same protocol loop
// `accval shard-worker` runs). Guarded by helperEnv so a normal test run
// skips it.
func TestShardWorkerHelper(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("stdio worker re-exec helper; spawned by the proc tests")
	}
	if err := ServeStdio(os.Stdin, os.Stdout, sweep.NewExecutor(sweep.ExecOptions{})); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperWorker yields the argv/env that re-exec this test binary as a
// stdio shard worker.
func helperWorker() (argv, env []string) {
	argv = []string{os.Args[0], "-test.run=^TestShardWorkerHelper$", "-test.count=1"}
	env = append(os.Environ(), helperEnv+"=1")
	return argv, env
}

// TestProcWorkerRoundTrip drives one unit through a real forked worker
// and checks the reply against the in-process executor's.
func TestProcWorkerRoundTrip(t *testing.T) {
	argv, env := helperWorker()
	w := NewProcWorker(argv, env)
	defer w.Close()
	u := sweep.Unit{Vendor: "pgi", Version: vendors.All()["pgi"][0], Lang: "c"}
	spec := sweep.Spec{Family: "data", Iterations: 1}
	got, err := w.Run(context.Background(), u, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.NewExecutor(sweep.ExecOptions{}).Run(context.Background(), u, spec)
	if err != nil {
		t.Fatal(err)
	}
	normalizeUnit := func(r *sweep.UnitResult) *sweep.UnitResult {
		out := *r
		out.DurationMS = 0
		out.Results = append([]core.TestResult(nil), r.Results...)
		for i := range out.Results {
			out.Results[i].Duration = 0
		}
		return &out
	}
	if !reflect.DeepEqual(normalizeUnit(want), normalizeUnit(got)) {
		t.Fatal("proc worker result diverged from the in-process executor's")
	}
}

// TestProcWorkerCrashRecovery kills a real worker subprocess mid-sweep
// (the ISSUE's crash drill) and checks the run still completes with a
// result identical to the unsharded sweep, having retried and respawned.
func TestProcWorkerCrashRecovery(t *testing.T) {
	argv, env := helperWorker()
	o := obs.NewObserver()
	victim := NewProcWorker(argv, env)
	workers := []sweep.Worker{victim, NewProcWorker(argv, env)}

	// SIGKILL the victim the moment its subprocess exists — its first
	// unit is then guaranteed to be mid-flight.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for victim.proc.Load() == nil {
			time.Sleep(time.Millisecond)
		}
		victim.Kill()
	}()

	got, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs: []ast.Lang{ast.LangC}, Family: "data", Iterations: 1,
		Workers: workers,
		Factory: ProcFactory(argv, env),
		Obs:     o,
	})
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatalf("victim subprocess never appeared; run err=%v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Metrics.Counter("accv_shard_units_retried_total").Value(); n < 1 {
		t.Fatalf("accv_shard_units_retried_total = %d after a worker kill, want >= 1", n)
	}

	want, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs: []ast.Lang{ast.LangC}, Family: "data", Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameSweep(t, want, got)
}

// hangWorker never completes a unit: it blocks until the coordinator's
// per-unit deadline fires and reports the (retryable) context error.
type hangWorker struct{}

func (hangWorker) Run(ctx context.Context, u sweep.Unit, spec sweep.Spec) (*sweep.UnitResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (hangWorker) Close() error { return nil }

// TestUnitDeadlineExhaustsRetryBudget pins the failure path: a unit that
// never completes is re-dispatched Retries times under its deadline, then
// fails the run with a diagnosable error.
func TestUnitDeadlineExhaustsRetryBudget(t *testing.T) {
	o := obs.NewObserver()
	_, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs:        []ast.Lang{ast.LangC},
		Family:       "data",
		Workers:      []sweep.Worker{hangWorker{}},
		UnitDeadline: 10 * time.Millisecond,
		Retries:      2,
		StealAfter:   -1,
		Versions:     vendors.All()["pgi"][:1],
		Obs:          o,
	})
	if err == nil || !strings.Contains(err.Error(), "failed after 3 dispatches") {
		t.Fatalf("err = %v, want the exhausted-retry diagnosis", err)
	}
	if n := o.Metrics.Counter("accv_shard_units_retried_total").Value(); n != 3 {
		t.Fatalf("accv_shard_units_retried_total = %d, want 3", n)
	}
}

// slowWorker delays every dispatch before executing it in-process —
// enough for the steal clock to see it as a straggler.
type slowWorker struct {
	delay time.Duration
	ex    *sweep.Executor
}

func (w *slowWorker) Run(ctx context.Context, u sweep.Unit, spec sweep.Spec) (*sweep.UnitResult, error) {
	select {
	case <-time.After(w.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return w.ex.Run(ctx, u, spec)
}
func (w *slowWorker) Close() error { return nil }

// TestWorkStealingResplitsSlowUnit runs a single-cell sweep where every
// dispatch is slow: the idle worker must steal the in-flight unit's upper
// half, and the speculative duplication must not corrupt the merge.
func TestWorkStealingResplitsSlowUnit(t *testing.T) {
	ex := sweep.NewExecutor(sweep.ExecOptions{})
	o := obs.NewObserver()
	ver := vendors.All()["pgi"][:1]
	spec := sweep.Spec{Family: "data", Iterations: 1}
	got, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs: []ast.Lang{ast.LangC}, Family: spec.Family, Iterations: spec.Iterations,
		Workers: []sweep.Worker{
			&slowWorker{delay: 120 * time.Millisecond, ex: ex},
			&slowWorker{delay: 120 * time.Millisecond, ex: ex},
		},
		StealAfter: 20 * time.Millisecond,
		MinSteal:   1,
		Versions:   ver,
		Obs:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Metrics.Counter("accv_shard_units_stolen_total").Value(); n < 1 {
		t.Fatalf("accv_shard_units_stolen_total = %d, want >= 1", n)
	}
	want, err := sweep.NewExecutor(sweep.ExecOptions{}).Run(context.Background(),
		sweep.Unit{Vendor: "pgi", Version: ver[0], Lang: "c"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	cell := got.Cells[0][0]
	if len(cell.Results) != len(want.Results) {
		t.Fatalf("merged %d results, want %d", len(cell.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], cell.Results[i]
		w.Duration, g.Duration = 0, 0
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("slot %d (%s) diverged under stealing", i, w.Name)
		}
	}
}

// TestShardTelemetryDocumented holds the local half of the telemetry
// contract: every accv_shard_* series the coordinator emits appears in
// docs/OBSERVABILITY.md (the module-root contract test drives the
// runtime half).
func TestShardTelemetryDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"accv_shard_units_dispatched_total",
		"accv_shard_units_completed_total",
		"accv_shard_units_retried_total",
		"accv_shard_units_stolen_total",
		"accv_shard_workers",
	} {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("series %q not documented in docs/OBSERVABILITY.md", name)
		}
	}
}
