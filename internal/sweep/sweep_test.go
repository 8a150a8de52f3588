package sweep_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"accv/internal/ast"
	"accv/internal/core"
	"accv/internal/report"
	"accv/internal/shard"
	"accv/internal/sweep"
	_ "accv/internal/templates"
	"accv/internal/vendors"
)

// TestSweepCellShape verifies the result grid: one non-nil SuiteResult per
// (version × lang) cell, in the family's declared version order, and
// nonzero memo traffic in both directions.
func TestSweepCellShape(t *testing.T) {
	res, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs:      []ast.Lang{ast.LangC, ast.LangFortran},
		Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vendor != "pgi" {
		t.Errorf("Vendor = %q", res.Vendor)
	}
	if len(res.Versions) == 0 {
		t.Fatal("no versions swept")
	}
	if got, want := len(res.Langs), 2; got != want {
		t.Fatalf("len(Langs) = %d, want %d", got, want)
	}
	if len(res.Cells) != len(res.Versions) {
		t.Fatalf("len(Cells) = %d, want %d", len(res.Cells), len(res.Versions))
	}
	for vi, row := range res.Cells {
		if len(row) != len(res.Langs) {
			t.Fatalf("row %d has %d cells, want %d", vi, len(row), len(res.Langs))
		}
		for li, sr := range row {
			if sr == nil {
				t.Fatalf("cell (%s, %s) is nil", res.Versions[vi], res.Langs[li])
			}
			if sr.Total() == 0 {
				t.Errorf("cell (%s, %s) ran zero tests", res.Versions[vi], res.Langs[li])
			}
		}
	}
	if res.MemoHits == 0 {
		t.Error("full pgi sweep recorded zero memo hits; memoization is vacuous")
	}
	if res.MemoMisses == 0 {
		t.Error("sweep recorded zero misses; nothing executed")
	}
	if res.Duration <= 0 {
		t.Error("Duration not recorded")
	}
}

// TestSweepUnknownVendor pins the error path.
func TestSweepUnknownVendor(t *testing.T) {
	if _, err := sweep.Run(context.Background(), "gcc", sweep.Options{}); err == nil {
		t.Fatal("unknown vendor accepted")
	}
}

// TestSweepNoMemoZeroCounters verifies the naive baseline reports no memo
// traffic at all.
func TestSweepNoMemoZeroCounters(t *testing.T) {
	res, err := sweep.Run(context.Background(), "cray", sweep.Options{
		Family:     "data",
		Iterations: 1,
		NoMemo:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits != 0 || res.MemoMisses != 0 {
		t.Errorf("NoMemo sweep reported memo counters %d/%d", res.MemoHits, res.MemoMisses)
	}
}

// TestSweepParallelismInvariance requires identical rendered reports from
// a serial (-j 1) and a wide (-j 8) sweep of the same vendor: the worker
// split across cells and the memo table's single-flight must never change
// what a cell reports.
func TestSweepParallelismInvariance(t *testing.T) {
	render := func(par int) []byte {
		res, err := sweep.Run(context.Background(), "caps", sweep.Options{
			Langs:       []ast.Lang{ast.LangC},
			Family:      "loop",
			Iterations:  1,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for vi, ver := range res.Versions {
			for li := range res.Langs {
				sr := res.Cells[vi][li]
				sr.Duration = 0
				for i := range sr.Results {
					sr.Results[i].Duration = 0
				}
				fmt.Fprintf(&buf, "== %s ==\n", ver)
				if err := report.Write(&buf, sr, report.Text); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes()
	}
	serial := render(1)
	wide := render(8)
	if !bytes.Equal(serial, wide) {
		t.Error("sweep output depends on parallelism")
	}
}

// TestSweepCanceledContext verifies cancellation surfaces ctx.Err() and
// still returns the partial grid rather than nil.
func TestSweepCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sweep.Run(ctx, "pgi", sweep.Options{Family: "data", Iterations: 1})
	if err == nil {
		t.Fatal("canceled sweep reported no error")
	}
	if res == nil {
		t.Fatal("canceled sweep returned nil result")
	}
}

// TestSweepMatchesPerReleaseLoop is the merge's independent reference:
// every cell of a memoized sweep must hold the verdicts core.RunSuiteContext
// reaches on its own for that release — no coordinator, no units, no
// memo — slot for slot, so a slot-merge bug cannot hide behind a
// comparison of two coordinator runs. Detail text and the cross-test
// statistics are left out: which lane faults first, and how often a racy
// cross variant fails, depend on scheduling.
func TestSweepMatchesPerReleaseLoop(t *testing.T) {
	const vendor = "cray"
	ctx := context.Background()
	langs := []ast.Lang{ast.LangC, ast.LangFortran}
	res, err := sweep.Run(ctx, vendor, sweep.Options{Langs: langs, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for vi, ver := range res.Versions {
		for li, lang := range langs {
			tc, err := vendors.New(vendor, ver)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.RunSuiteContext(ctx, core.Config{Toolchain: tc, Iterations: 1}, core.ByLang(lang))
			if err != nil {
				t.Fatal(err)
			}
			got := res.Cells[vi][li]
			if got.Compiler != want.Compiler || got.Version != want.Version || got.Lang != want.Lang ||
				len(got.Results) != len(want.Results) {
				t.Fatalf("%s %s: cell %s %s %s with %d results, want %s %s %s with %d", ver, lang,
					got.Compiler, got.Version, got.Lang, len(got.Results),
					want.Compiler, want.Version, want.Lang, len(want.Results))
			}
			for i := range want.Results {
				if g, w := verdictOf(got.Results[i]), verdictOf(want.Results[i]); !reflect.DeepEqual(g, w) {
					t.Errorf("%s %s slot %d: sweep %+v, per-release loop %+v", ver, lang, i, g, w)
				}
			}
		}
	}
}

// verdict is the schedule-independent part of a TestResult.
type verdict struct {
	Name, Family        string
	Lang                ast.Lang
	Outcome             core.Outcome
	FuncRuns, FuncFails int
	Attempts            int
	HasCross            bool
	BugIDs              []string
}

func verdictOf(r core.TestResult) verdict {
	return verdict{r.Name, r.Family, r.Lang, r.Outcome, r.FuncRuns, r.FuncFails, r.Attempts, r.HasCross, r.BugIDs}
}

const workerHelperEnv = "ACCV_SWEEP_WORKER_HELPER"

// TestSweepWorkerHelper is not a test: it is the stdio worker subprocess
// the forked-worker cases re-exec this test binary into (the loop
// `accval shard-worker` runs). Guarded by workerHelperEnv.
func TestSweepWorkerHelper(t *testing.T) {
	if os.Getenv(workerHelperEnv) != "1" {
		t.Skip("stdio worker re-exec helper; spawned by the forked-worker cases")
	}
	if err := shard.ServeStdio(os.Stdin, os.Stdout, sweep.NewExecutor(sweep.ExecOptions{})); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestCanceledSweepNamesEverySlot pins the cancellation contract of
// accv.RunSweep for both worker kinds: a sweep canceled before it starts
// returns every slot as a Canceled result named after its template —
// never a zero TestResult, which would read as a nameless Pass — and
// err is context.Canceled.
func TestCanceledSweepNamesEverySlot(t *testing.T) {
	argv := []string{os.Args[0], "-test.run=^TestSweepWorkerHelper$", "-test.count=1"}
	env := append(os.Environ(), workerHelperEnv+"=1")
	for _, tc := range []struct {
		name    string
		workers func() []sweep.Worker
	}{
		{"in-process", func() []sweep.Worker { return nil }},
		{"forked", func() []sweep.Worker {
			return []sweep.Worker{shard.NewProcWorker(argv, env), shard.NewProcWorker(argv, env)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			langs := []ast.Lang{ast.LangC, ast.LangFortran}
			res, err := sweep.Run(ctx, "pgi", sweep.Options{
				Langs: langs, Family: "data", Iterations: 1, Workers: tc.workers(),
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("canceled sweep returned nil result")
			}
			for vi, row := range res.Cells {
				for li, sr := range row {
					tpls := sweep.TemplatesFor("data", langs[li])
					if len(sr.Results) != len(tpls) {
						t.Fatalf("%s %s: %d slots, want %d", res.Versions[vi], langs[li], len(sr.Results), len(tpls))
					}
					for i, r := range sr.Results {
						if r.Name != tpls[i].Name || r.Outcome != core.Canceled {
							t.Errorf("%s %s slot %d = %q/%v, want %q/%v", res.Versions[vi], langs[li], i,
								r.Name, r.Outcome, tpls[i].Name, core.Canceled)
						}
					}
				}
			}
		})
	}
}
