// Tests for POST /v1/shard/run, the remote-worker half of the sharded
// sweep coordinator: a posted unit must come back identical to the
// in-process executor's answer, an HTTPWorker-driven sharded sweep must
// match the unsharded sweep, and malformed units must be structured 400s.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"accv"
	"accv/internal/core"
	"accv/internal/shard"
	"accv/internal/sweep"
)

// normalizeShardResult strips wall-clock durations and the worker-local
// memo telemetry (the daemon's shared memo table makes hit/miss splits
// load-dependent) so unit results compare on verdicts alone.
func normalizeShardResult(r *ShardRunResponse) *ShardRunResponse {
	out := *r
	out.DurationMS = 0
	out.MemoHits, out.MemoMisses, out.StoreHits = 0, 0, 0
	out.Results = append([]core.TestResult(nil), r.Results...)
	for i := range out.Results {
		out.Results[i].Duration = 0
	}
	return &out
}

// TestShardRunEndpoint posts one whole-cell unit and pins the response
// against the in-process executor running the same unit.
func TestShardRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	unit := sweep.Unit{Vendor: "pgi", Version: accv.Versions("pgi")[0], Lang: "c"}
	spec := sweep.Spec{Family: "data", Iterations: 1}

	var got ShardRunResponse
	resp := postJSON(t, ts.URL+"/v1/shard/run", ShardRunRequest{Unit: unit, Spec: spec}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}

	want, err := sweep.NewExecutor(sweep.ExecOptions{}).Run(context.Background(), unit, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) == 0 {
		t.Fatal("endpoint returned zero results for a whole-cell unit")
	}
	if !reflect.DeepEqual(normalizeShardResult(want), normalizeShardResult(&got)) {
		t.Fatal("endpoint unit result diverged from the in-process executor's")
	}
}

// TestShardRunSubrange pins the range semantics: [1:3) of a cell returns
// exactly the executor's slots 1 and 2, with the resolved range echoed.
func TestShardRunSubrange(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	unit := sweep.Unit{Vendor: "cray", Version: accv.Versions("cray")[0], Lang: "c", From: 1, To: 3}
	spec := sweep.Spec{Family: "data", Iterations: 1}

	var got ShardRunResponse
	resp := postJSON(t, ts.URL+"/v1/shard/run", ShardRunRequest{Unit: unit, Spec: spec}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(got.Results) != 2 {
		t.Fatalf("[1:3) returned %d results, want 2", len(got.Results))
	}
	if got.Unit.From != 1 || got.Unit.To != 3 {
		t.Fatalf("echoed range [%d:%d), want [1:3)", got.Unit.From, got.Unit.To)
	}

	whole, err := sweep.NewExecutor(sweep.ExecOptions{}).Run(context.Background(),
		sweep.Unit{Vendor: "cray", Version: unit.Version, Lang: "c"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got.Results {
		w := whole.Results[unit.From+i]
		w.Duration, g.Duration = 0, 0
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("slot %d (%s) diverged from the whole-cell run", unit.From+i, w.Name)
		}
	}
}

// TestShardedSweepOverHTTPWorkers is the remote-coordinator acceptance:
// a sweep fanned across two accvd instances through HTTPWorker merges
// into a result identical to the local unsharded sweep.
func TestShardedSweepOverHTTPWorkers(t *testing.T) {
	_, tsA := newTestServer(t, Config{})
	_, tsB := newTestServer(t, Config{})

	got, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs: []accv.Language{accv.C}, Family: "data", Iterations: 1,
		Workers: []sweep.Worker{
			shard.NewHTTPWorker(tsA.URL, nil),
			shard.NewHTTPWorker(tsB.URL, nil),
		}})
	if err != nil {
		t.Fatal(err)
	}

	want, err := sweep.Run(context.Background(), "pgi", sweep.Options{
		Langs: []accv.Language{accv.C}, Family: "data", Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Vendor != want.Vendor || !reflect.DeepEqual(got.Versions, want.Versions) {
		t.Fatalf("grid mismatch: got %s %v, want %s %v", got.Vendor, got.Versions, want.Vendor, want.Versions)
	}
	for vi := range want.Cells {
		for li := range want.Cells[vi] {
			w, g := want.Cells[vi][li], got.Cells[vi][li]
			if w.Total() != g.Total() || w.Passed() != g.Passed() {
				t.Fatalf("cell [%s]: got %d/%d, want %d/%d",
					want.Versions[vi], g.Passed(), g.Total(), w.Passed(), w.Total())
			}
			for i := range w.Results {
				wr, gr := w.Results[i], g.Results[i]
				wr.Duration, gr.Duration = 0, 0
				if !reflect.DeepEqual(wr, gr) {
					t.Fatalf("cell [%s] slot %d (%s) diverged over HTTP workers",
						want.Versions[vi], i, wr.Name)
				}
			}
		}
	}
}

// TestShardRunBadRequests pins the structured-400 surface of the unit
// endpoint: unknown lang, unknown vendor, unknown version, and a range
// outside the cell.
func TestShardRunBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pgiVer := accv.Versions("pgi")[0]

	cases := []struct {
		name     string
		req      ShardRunRequest
		wantCode string
	}{
		{"unknown lang",
			ShardRunRequest{Unit: sweep.Unit{Vendor: "pgi", Version: pgiVer, Lang: "rust"}},
			codeBadRequest},
		{"unknown vendor",
			ShardRunRequest{Unit: sweep.Unit{Vendor: "gcc", Version: "13.2", Lang: "c"}},
			codeUnknownCompiler},
		{"unknown version",
			ShardRunRequest{Unit: sweep.Unit{Vendor: "pgi", Version: "99.9", Lang: "c"}},
			codeUnknownCompiler},
		{"range outside cell",
			ShardRunRequest{
				Unit: sweep.Unit{Vendor: "pgi", Version: pgiVer, Lang: "c", From: 5, To: 2},
				Spec: sweep.Spec{Family: "data"}},
			codeBadRequest},
		{"bad engine",
			ShardRunRequest{
				Unit: sweep.Unit{Vendor: "pgi", Version: pgiVer, Lang: "c"},
				Spec: sweep.Spec{Engine: "warp"}},
			codeBadRequest},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/shard/run", tc.req, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	// Error codes ride the envelope; check one of each through the raw path.
	for _, tc := range cases[:2] {
		b, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/shard/run", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if code := decodeErrorEnvelope(t, resp); code != tc.wantCode {
			t.Errorf("%s: error code = %q, want %q", tc.name, code, tc.wantCode)
		}
	}
}
