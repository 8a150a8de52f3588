// End-to-end tests over the full HTTP surface: every documented endpoint
// is exercised, and the headline acceptance check pins that a suite run
// through the API renders byte-for-byte the report accval would write
// locally for the same options.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"accv"
)

// figure1Source is the paper's Fig. 1 worker-without-gang program — small,
// valid, and accepted by the reference toolchain.
const figure1Source = `
int acc_test()
{
    int n = 32;
    int i;
    int a[32];
    for (i = 0; i < n; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:n]) num_gangs(1) num_workers(4)
    {
        #pragma acc loop worker
        for (i = 0; i < n; i++)
            a[i] = a[i] + 1;
    }
    return (a[0] == 1);
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response body into out (if non-nil),
// returning the raw response for header/status checks.
func postJSON(t *testing.T, url string, v, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s response (status %d): %v\nbody: %s", url, resp.StatusCode, err, raw)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("healthz = %+v, want status ok, not draining", h)
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var ok CompileResponse
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: figure1Source}, &ok)
	if !ok.OK {
		t.Fatalf("reference toolchain rejected Fig. 1 program: %+v", ok.Diagnostics)
	}

	// Cray 8.2.0 rejects worker-without-gang (the Fig. 1 divergence): the
	// endpoint must report ok=false with a diagnostic, not an HTTP error.
	var rej CompileResponse
	resp := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Source: figure1Source, Compiler: "cray", Version: "8.2.0"}, &rej)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d, want 200 (compile failure is a payload, not an error)", resp.StatusCode)
	}
	if rej.OK || len(rej.Diagnostics) == 0 {
		t.Fatalf("cray 8.2.0 compile = %+v, want ok=false with diagnostics", rej)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var res RunResponse
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: figure1Source}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d, want 200", resp.StatusCode)
	}
	if res.Exit != 1 || res.Error != "" {
		t.Fatalf("run = %+v, want exit 1 with no error", res)
	}
	if res.Kernels < 1 {
		t.Fatalf("run launched %d kernels, want >= 1", res.Kernels)
	}
}

func TestVetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// ACV003's golden bad fixture shape: copyin(a) maps an array the
	// region never touches, so the endpoint must surface a finding.
	src := `
int acc_test()
{
    int i;
    int a[16], b[16];
    for (i = 0; i < 16; i++) { a[i] = i; b[i] = -1; }
    #pragma acc parallel copyin(a[0:16]) copyout(b[0:16])
    {
        #pragma acc loop
        for (i = 0; i < 16; i++) b[i] = i * 2;
    }
    return (b[0] == 0);
}
`
	var res VetResponse
	resp := postJSON(t, ts.URL+"/v1/vet", VetRequest{Source: src}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vet status = %d, want 200", resp.StatusCode)
	}
	if len(res.Findings) == 0 {
		t.Fatal("vet returned no findings for a present()-without-data program")
	}
}

// TestSuiteByteIdentity is the tentpole acceptance check: a suite run
// through the HTTP API renders the same report accval would write locally
// with the same options. CSV carries no wall-clock field, so the
// comparison is exact; for Text the Duration line (the one legitimately
// varying field, cf. TestParallelReportsByteIdentical) is masked.
func TestSuiteByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SuiteRequest{
		Compiler: "pgi", Version: "13.2",
		Family: "data", Iterations: 2, Parallelism: 4,
		Format: "csv",
	}
	var viaHTTP SuiteResponse
	resp := postJSON(t, ts.URL+"/v1/suite", req, &viaHTTP)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suite status = %d, want 200", resp.StatusCode)
	}

	tc, err := accv.NewCompiler("pgi", "13.2")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := accv.NewRunner(accv.C,
		accv.WithFamily("data"), accv.WithIterations(2), accv.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	local := runner.Run(tc)
	var localCSV bytes.Buffer
	if err := accv.WriteReport(&localCSV, local, accv.CSV); err != nil {
		t.Fatal(err)
	}
	if viaHTTP.Report != localCSV.String() {
		t.Errorf("CSV report over HTTP differs from the local accval run:\n--- HTTP ---\n%s\n--- local ---\n%s",
			viaHTTP.Report, localCSV.String())
	}
	if viaHTTP.Total != local.Total() || viaHTTP.Passed != local.Passed() || viaHTTP.Failed != local.Failed() {
		t.Errorf("summary over HTTP = %d/%d/%d, local = %d/%d/%d",
			viaHTTP.Total, viaHTTP.Passed, viaHTTP.Failed,
			local.Total(), local.Passed(), local.Failed())
	}

	// Text format: identical modulo the Duration line.
	req.Format = ""
	var viaText SuiteResponse
	postJSON(t, ts.URL+"/v1/suite", req, &viaText)
	var localText bytes.Buffer
	if err := accv.WriteReport(&localText, local, accv.Text); err != nil {
		t.Fatal(err)
	}
	durLine := regexp.MustCompile(`(?m)^Duration: .*$`)
	gotText := durLine.ReplaceAllString(viaText.Report, "Duration: X")
	wantText := durLine.ReplaceAllString(localText.String(), "Duration: X")
	if gotText != wantText {
		t.Errorf("Text report over HTTP differs from the local accval run (durations masked):\n--- HTTP ---\n%s\n--- local ---\n%s",
			gotText, wantText)
	}
}

// TestSuiteCoalescing pins that an identical concurrent suite request
// joins the leader's flight instead of executing again: the joiner is
// marked with X-Accvd-Coalesced and both bodies are byte-identical.
func TestSuiteCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SuiteRequest{Compiler: "caps", Version: "3.3.4", Family: "update", Iterations: 2}

	type reply struct {
		body      string
		coalesced bool
	}
	leader := make(chan reply, 1)
	go func() {
		var out SuiteResponse
		resp := postJSON(t, ts.URL+"/v1/suite", req, &out)
		leader <- reply{out.Report, resp.Header.Get("X-Accvd-Coalesced") == "1"}
	}()

	// Wait for the leader's flight to be registered, then join it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.suiteFlights.mu.Lock()
		n := len(s.suiteFlights.m)
		s.suiteFlights.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	var joined SuiteResponse
	resp := postJSON(t, ts.URL+"/v1/suite", req, &joined)
	if resp.Header.Get("X-Accvd-Coalesced") != "1" {
		t.Error("second identical request was not coalesced")
	}
	lead := <-leader
	if lead.coalesced {
		t.Error("flight leader was marked coalesced")
	}
	if joined.Report != lead.body {
		t.Error("coalesced response body differs from the leader's")
	}
	if v := metricValue(t, ts, "accvd_coalesced_requests_total"); v < 1 {
		t.Errorf("accvd_coalesced_requests_total = %v, want >= 1", v)
	}
}

// TestSweepMemoSharing pins the cross-request memo: a sweep repeated in a
// second request is served from the shared single-flight table, so the
// repeat reports memo hits and no fresh misses.
func TestSweepMemoSharing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SweepRequest{Vendor: "pgi", Family: "wait", Iterations: 1}

	var first SweepResponse
	if resp := postJSON(t, ts.URL+"/v1/sweep", req, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d, want 200", resp.StatusCode)
	}
	if first.MemoMisses == 0 {
		t.Fatalf("first sweep reported no memo misses: %+v", first)
	}
	var second SweepResponse
	postJSON(t, ts.URL+"/v1/sweep", req, &second)
	if second.MemoMisses != 0 || second.MemoHits == 0 {
		t.Errorf("repeated sweep: hits=%d misses=%d, want all hits (shared memo)",
			second.MemoHits, second.MemoMisses)
	}
	if len(second.Cells) != len(first.Cells) {
		t.Fatalf("cell shape changed between identical sweeps")
	}
	for vi := range first.Cells {
		for li := range first.Cells[vi] {
			if first.Cells[vi][li] != second.Cells[vi][li] {
				t.Errorf("cell [%d][%d] differs between memoized runs: %+v vs %+v",
					vi, li, first.Cells[vi][li], second.Cells[vi][li])
			}
		}
	}
}

// TestSharedCompileCacheAcrossRequests pins that the compile cache
// outlives a request: a repeated /v1/run compiles for free.
func TestSharedCompileCacheAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Source: figure1Source}, nil)
	h0, m0, _ := s.CacheStats()
	postJSON(t, ts.URL+"/v1/run", RunRequest{Source: figure1Source}, nil)
	h1, m1, _ := s.CacheStats()
	if h1 <= h0 {
		t.Errorf("repeated run did not hit the shared compile cache (hits %d -> %d)", h0, h1)
	}
	if m1 != m0 {
		t.Errorf("repeated run recompiled (misses %d -> %d)", m0, m1)
	}
}

// metricValue scrapes /metrics and returns the summed value of every
// series of the named metric (0 when absent).
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		metric := fields[0]
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			metric = metric[:i]
		}
		if metric != name {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil {
			total += v
		}
	}
	return total
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: figure1Source}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q, want Prometheus text", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"accvd_requests_total",
		"accvd_request_duration_seconds",
		"accvd_inflight_requests",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %s after a served request", want)
		}
	}
}

// TestConcurrentSweepMemoCounters pins per-request memo accounting: two
// different-family sweeps running at once share the daemon's memo table,
// yet each response's memo and store counters account for exactly its
// own tests — every test is a memo hit, a memo miss, or a store hit.
func TestConcurrentSweepMemoCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	families := []string{"data", "loop"}
	resps := make([]SweepResponse, len(families))
	errs := make([]error, len(families))
	var wg sync.WaitGroup
	for i, fam := range families {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(SweepRequest{Vendor: "pgi", Family: fam, Iterations: 1,
				Langs: []string{"c", "fortran"}})
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&resps[i])
		}()
	}
	wg.Wait()
	for i, fam := range families {
		if errs[i] != nil {
			t.Fatalf("%s sweep: %v", fam, errs[i])
		}
		total := 0
		for _, row := range resps[i].Cells {
			for _, cell := range row {
				total += cell.Total
			}
		}
		r := resps[i]
		if got := r.MemoHits + r.MemoMisses + r.StoreHits; got != int64(total) || total == 0 {
			t.Errorf("%s sweep: memo_hits %d + memo_misses %d + store_hits %d = %d, want the %d tests it ran",
				fam, r.MemoHits, r.MemoMisses, r.StoreHits, got, total)
		}
	}
}
