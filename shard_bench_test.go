package accv

// The BENCH_shard.json generator: an env-gated measurement of the sharded
// sweep coordinator fanning the full three-vendor sweep across 1, 4, and
// 8 forked worker processes sharing one result store, cold and warm.
// CI's bench-shard job runs it with BENCH_SHARD_OUT set and publishes the
// artifact; locally:
//
//	BENCH_SHARD_OUT=BENCH_shard.json go test -run TestWriteShardBench -v .
//
// The run fails — independently of any speedup number — if a warm sharded
// sweep executes a single test (the store must serve every verdict), and,
// on a host whose core count can express it, if the 8-worker cold sweep
// is not at least 2x faster than the 1-worker cold sweep. Without the
// variable it only smoke-checks the store-sharing line on one cheap
// sharded run through real forked workers.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"accv/internal/ast"
	"accv/internal/benchhost"
	"accv/internal/shard"
	"accv/internal/sweep"
)

const shardBenchHelperEnv = "ACCV_SHARD_BENCH_HELPER"

// TestShardBenchWorkerHelper is not a test: it is the worker subprocess
// the shard bench forks — the same stdio loop `accval shard-worker` runs.
func TestShardBenchWorkerHelper(t *testing.T) {
	if os.Getenv(shardBenchHelperEnv) != "1" {
		t.Skip("stdio worker re-exec helper; spawned by TestWriteShardBench")
	}
	if err := shard.ServeStdio(os.Stdin, os.Stdout, sweep.NewExecutor(sweep.ExecOptions{})); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// benchWorkerSpawn yields the argv/env that re-exec this test binary as a
// stdio shard worker.
func benchWorkerSpawn() (argv, env []string) {
	argv = []string{os.Args[0], "-test.run=^TestShardBenchWorkerHelper$", "-test.count=1"}
	env = append(os.Environ(), shardBenchHelperEnv+"=1")
	return argv, env
}

// runShardedSweeps fans every vendor's sweep across `workers` freshly
// forked worker processes sharing storeDir, returning the aggregate wall
// clock and the aggregate executed-test count.
func runShardedSweeps(t *testing.T, workers int, storeDir string) (time.Duration, int64) {
	t.Helper()
	argv, env := benchWorkerSpawn()
	ws := make([]sweep.Worker, workers)
	for i := range ws {
		ws[i] = shard.NewProcWorker(argv, env)
	}
	defer func() {
		for _, w := range ws {
			w.Close()
		}
	}()
	langs := []ast.Lang{ast.LangC, ast.LangFortran}
	var executed int64
	start := time.Now()
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		res, err := sweep.Run(context.Background(), vendor, sweep.Options{
			Langs: langs, Iterations: 1, StoreDir: storeDir,
			Workers: ws, Factory: shard.ProcFactory(argv, env),
		})
		if err != nil {
			t.Fatalf("%d-worker sharded %s sweep: %v", workers, vendor, err)
		}
		executed += res.MemoMisses
	}
	return time.Since(start), executed
}

type shardBenchConfig struct {
	Workers        int     `json:"workers"`
	ColdMS         int64   `json:"cold_ms"`
	WarmMS         int64   `json:"warm_ms"`
	ColdSpeedup    float64 `json:"cold_speedup"`
	WarmExecutions int64   `json:"warm_executions"`
}

type shardBench struct {
	Benchmark   string             `json:"benchmark"`
	Workload    string             `json:"workload"`
	HostCores   int                `json:"host_cores"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	HostLimited bool               `json:"host_limited"`
	Configs     []shardBenchConfig `json:"configs"`
	Note        string             `json:"note"`
}

// TestWriteShardBench measures the sharded sweep at 1, 4, and 8 forked
// workers (cold store, then warm over the same directory) and writes the
// JSON record to $BENCH_SHARD_OUT. Without the variable it only
// smoke-checks one cheap sharded run.
func TestWriteShardBench(t *testing.T) {
	out := os.Getenv("BENCH_SHARD_OUT")
	if out == "" {
		// Smoke mode: a 2-worker sharded pgi sweep over a store, then an
		// unsharded warm sweep over the same directory that must execute
		// nothing.
		dir := t.TempDir()
		if _, executed := runShardedSweepSmoke(t, dir); executed == 0 {
			t.Fatal("cold sharded sweep executed zero tests — the measurement is vacuous")
		}
		warm, err := sweep.Run(context.Background(), "pgi", sweep.Options{
			Langs: []ast.Lang{ast.LangC}, Family: "data", Iterations: 1, StoreDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if warm.MemoMisses != 0 || warm.StoreHits == 0 {
			t.Fatalf("warm sweep over the sharded store executed %d tests with %d disk hits; want 0 and >0",
				warm.MemoMisses, warm.StoreHits)
		}
		t.Skip("BENCH_SHARD_OUT not set; smoke check only")
	}

	limited := benchhost.LogIfLimited(t, 8)
	rec := shardBench{
		Benchmark:   "sharded sweep: 1 vs 4 vs 8 forked worker processes (TestWriteShardBench)",
		Workload:    "aggregate three-vendor sweep (caps+pgi+cray, C+Fortran, iterations=1, full 1.0 registry) through `accval shard-worker`-equivalent stdio subprocesses sharing one result store; cold = empty store, warm = same directory, fresh worker fleet",
		HostCores:   benchhost.Cores(),
		GOMAXPROCS:  benchhost.Procs(),
		HostLimited: limited,
		Note: "cold_speedup is cold_ms(1 worker)/cold_ms(N workers): real multi-process " +
			"parallelism, so it needs host_cores >= N to express itself — host_limited " +
			"records when this host could not (the committed numbers from the 1-core dev " +
			"container show ~1x; CI's multi-core bench-shard job enforces >= 2x at 8 " +
			"workers, target 3x). warm_executions is pinned to 0 at every width: a warm " +
			"store serves every verdict from disk no matter how the grid was sharded " +
			"(docs/STORE.md). Regenerate with: BENCH_SHARD_OUT=BENCH_shard.json go test -run TestWriteShardBench -v .",
	}
	var cold1 time.Duration
	for _, workers := range []int{1, 4, 8} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("w%d", workers))
		cold, coldExec := runShardedSweeps(t, workers, dir)
		if coldExec == 0 {
			t.Fatalf("%d-worker cold sweep executed zero tests — the measurement is vacuous", workers)
		}
		warm, warmExec := runShardedSweeps(t, workers, dir)
		if warmExec != 0 {
			t.Fatalf("%d-worker warm sweep executed %d tests; want 0 (every verdict off the shared store)", workers, warmExec)
		}
		if workers == 1 {
			cold1 = cold
		}
		cfg := shardBenchConfig{
			Workers:        workers,
			ColdMS:         cold.Milliseconds(),
			WarmMS:         warm.Milliseconds(),
			ColdSpeedup:    round2(float64(cold1) / float64(cold)),
			WarmExecutions: warmExec,
		}
		rec.Configs = append(rec.Configs, cfg)
		t.Logf("%d workers: cold=%s warm=%s speedup=%.2fx", workers, cold, warm, cfg.ColdSpeedup)
		if workers == 8 && !limited && cfg.ColdSpeedup < 2.0 {
			t.Errorf("8-worker cold speedup %.2fx is below the 2x floor on a %d-core host",
				cfg.ColdSpeedup, benchhost.Cores())
		}
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runShardedSweepSmoke is the reduced smoke workload: pgi, C, family
// data, two forked workers over storeDir.
func runShardedSweepSmoke(t *testing.T, storeDir string) (*sweep.Result, int64) {
	t.Helper()
	argv, env := benchWorkerSpawn()
	ws := []sweep.Worker{shard.NewProcWorker(argv, env), shard.NewProcWorker(argv, env)}
	defer func() {
		for _, w := range ws {
			w.Close()
		}
	}()
	res, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs: []ast.Lang{ast.LangC}, Family: "data", Iterations: 1, StoreDir: storeDir,
		Workers: ws,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, res.MemoMisses
}
