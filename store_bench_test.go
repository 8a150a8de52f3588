package accv

// The BENCH_store.json generator: an env-gated measurement run comparing
// a cold sweep (empty result store, every fingerprint executed and
// written through) against a warm sweep (same directory, fresh store
// handle — the restarted-process case) per vendor. CI's bench-store job
// runs it with BENCH_STORE_OUT set and publishes the artifact; locally:
//
//	BENCH_STORE_OUT=BENCH_store.json go test -run TestWriteStoreBench -v .
//
// The run fails — independently of any speedup number — if a warm sweep
// executes anything (memo misses > 0) or reports zero disk hits: the
// zero-redundant-execution guarantee of docs/STORE.md, not just a
// timing, is what the artifact certifies.

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
	"accv/internal/store"
	"accv/internal/sweep"
)

type storeBenchVendor struct {
	Vendor    string  `json:"vendor"`
	Cells     int     `json:"cells"`
	ColdMS    int64   `json:"cold_ms"`
	WarmMS    int64   `json:"warm_ms"`
	Speedup   float64 `json:"speedup"`
	Executed  int64   `json:"cold_executions"`
	WarmExec  int64   `json:"warm_executions"`
	StoreHits int64   `json:"warm_store_hits"`
	Entries   int     `json:"store_entries"`
}

type storeBench struct {
	Benchmark  string             `json:"benchmark"`
	Workload   string             `json:"workload"`
	HostCores  int                `json:"host_cores"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Vendors    []storeBenchVendor `json:"vendors"`
	Note       string             `json:"note"`
}

// storeSweep runs one store-backed sweep over dir through a fresh store
// handle, modeling a separate process sharing the directory.
func storeSweep(t *testing.T, dir, vendor string, iters int) *sweep.Result {
	t.Helper()
	res, err := sweep.Run(context.Background(), vendor, sweep.Options{
		Langs: []ast.Lang{ast.LangC, ast.LangFortran}, Iterations: iters, StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWriteStoreBench measures a cold vs warm store-backed sweep for
// every vendor at the accval defaults and writes the JSON record to
// $BENCH_STORE_OUT. Without the variable it only smoke-checks the
// zero-redundant-execution line on a single reduced sweep pair.
func TestWriteStoreBench(t *testing.T) {
	out := os.Getenv("BENCH_STORE_OUT")
	if out == "" {
		// Each sweep.Run opens the directory through a fresh executor —
		// a new handle, as a second process would.
		opts := sweep.Options{Langs: []ast.Lang{ast.LangC}, Iterations: 1,
			Family: "data", StoreDir: t.TempDir()}
		if _, err := sweep.Run(context.Background(), "pgi", opts); err != nil {
			t.Fatal(err)
		}
		warm, err := sweep.Run(context.Background(), "pgi", opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm.MemoMisses != 0 || warm.StoreHits == 0 {
			t.Fatalf("warm sweep executed %d tests with %d disk hits; want 0 and >0",
				warm.MemoMisses, warm.StoreHits)
		}
		t.Skip("BENCH_STORE_OUT not set; smoke check only")
	}

	iters := 3
	rec := storeBench{
		Benchmark:  "cold vs warm store-backed sweep (TestWriteStoreBench)",
		Workload:   fmt.Sprintf("accval sweep -store equivalent: every simulated version x {C, Fortran}, iterations=%d, full 1.0 registry; cold = empty store, warm = same directory through a fresh handle (restarted process)", iters),
		HostCores:  benchhost.Cores(),
		GOMAXPROCS: benchhost.Procs(),
		Note: "warm_executions is pinned to 0: the warm sweep serves every distinct " +
			"behavioral fingerprint from disk (warm_store_hits) and the rest from " +
			"in-sweep memo dedup, so the warm wall-clock is the store's read path plus " +
			"result assembly — no test execution at all (docs/STORE.md). Regenerate " +
			"with: BENCH_STORE_OUT=BENCH_store.json go test -run TestWriteStoreBench -v .",
	}
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		dir := filepath.Join(t.TempDir(), vendor)
		start := time.Now()
		cold := storeSweep(t, dir, vendor, iters)
		coldDur := time.Since(start)
		start = time.Now()
		warm := storeSweep(t, dir, vendor, iters)
		warmDur := time.Since(start)
		if warm.MemoMisses != 0 {
			t.Fatalf("warm %s sweep executed %d tests, want 0", vendor, warm.MemoMisses)
		}
		if warm.StoreHits == 0 {
			t.Fatalf("warm %s sweep reported zero disk hits", vendor)
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec.Vendors = append(rec.Vendors, storeBenchVendor{
			Vendor:    vendor,
			Cells:     len(warm.Versions) * len(warm.Langs),
			ColdMS:    coldDur.Milliseconds(),
			WarmMS:    warmDur.Milliseconds(),
			Speedup:   round2(float64(coldDur) / float64(warmDur)),
			Executed:  cold.MemoMisses,
			WarmExec:  warm.MemoMisses,
			StoreHits: warm.StoreHits,
			Entries:   st.Len(),
		})
		t.Logf("%s: cold=%s warm=%s speedup=%.2fx executed=%d store_hits=%d entries=%d",
			vendor, coldDur, warmDur, float64(coldDur)/float64(warmDur),
			cold.MemoMisses, warm.StoreHits, st.Len())
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
