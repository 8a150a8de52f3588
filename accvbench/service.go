package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"accv/internal/ast"
	"accv/internal/core"
	"accv/internal/service"
)

// body is the request's JSON body.
func (r svcReq) body() ([]byte, error) {
	var v any
	switch r.Endpoint {
	case "compile", "run", "vet":
		tpl := core.Lookup(r.Template, r.Lang)
		if tpl == nil {
			return nil, fmt.Errorf("no template %s.%s", r.Template, r.Lang)
		}
		src, _, _, err := tpl.GenerateCached()
		if err != nil {
			return nil, err
		}
		switch r.Endpoint {
		case "compile":
			v = service.CompileRequest{Source: src, Lang: r.Lang.String(), Compiler: r.Release.Compiler, Version: r.Release.Version}
		case "run":
			v = service.RunRequest{Source: src, Lang: r.Lang.String(), Compiler: r.Release.Compiler,
				Version: r.Release.Version, Env: tpl.Env}
		default:
			v = service.VetRequest{Source: src, Lang: r.Lang.String()}
		}
	case "suite":
		v = service.SuiteRequest{Compiler: r.Release.Compiler, Version: r.Release.Version,
			Lang: r.Lang.String(), Family: r.Family, Format: "csv"}
	case "sweep":
		v = service.SweepRequest{Vendor: r.Vendor, Family: r.Family,
			Langs: []string{ast.LangC.String(), ast.LangFortran.String()}}
	}
	return json.Marshal(v)
}

// checkResponse judges one service reply against the golden verdicts.
// It returns the verdicts the reply carried; a non-nil error fails the
// request, and mismatch marks a reply whose verdicts are wrong.
func checkResponse(g *golden, r svcReq, status int, body []byte) (verdicts int, mismatch bool, err error) {
	if status != http.StatusOK {
		return 0, false, fmt.Errorf("%s: HTTP %d: %.200s", r.Endpoint, status, body)
	}
	bad := func(format string, args ...any) (int, bool, error) {
		return 0, true, fmt.Errorf(r.Endpoint+": "+format, args...)
	}
	switch r.Endpoint {
	case "compile":
		var resp service.CompileResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return bad("%v", err)
		}
		if !resp.OK {
			return bad("%s.%s on %s did not compile", r.Template, r.Lang, r.Release.key())
		}
	case "run":
		var resp service.RunResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return bad("%v", err)
		}
		if resp.Exit != 1 || resp.Error != "" {
			return bad("%s.%s on %s: exit %d, error %q, golden says pass",
				r.Template, r.Lang, r.Release.key(), resp.Exit, resp.Error)
		}
		return 1, false, nil
	case "vet":
		var resp service.VetResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return bad("%v", err)
		}
		row, _ := g.row(r.Release, r.Lang, r.Template)
		if len(resp.Findings) != row.VetFindings {
			return bad("%s.%s: %d findings, golden has %d", r.Template, r.Lang, len(resp.Findings), row.VetFindings)
		}
	case "suite":
		var resp service.SuiteResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return bad("%v", err)
		}
		want := g.familyCSV(r.Release, r.Lang, r.Family)
		if n, _ := compareRows([]byte(resp.Report), want); n > 0 {
			return bad("%s %s family %s: %d verdict rows differ from the golden; first: %s",
				r.Release.key(), r.Lang, r.Family, n, firstDiff([]byte(resp.Report), want))
		}
		return resp.Total, false, nil
	case "sweep":
		var resp service.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return bad("%v", err)
		}
		for vi, ver := range resp.Versions {
			for li, lang := range langs {
				if vi >= len(resp.Cells) || li >= len(resp.Cells[vi]) {
					return bad("%s: missing cell %s/%s", r.Vendor, ver, lang)
				}
				cell := resp.Cells[vi][li]
				total, passed := g.cellCounts(release{r.Vendor, ver}, lang, r.Family)
				if cell.Total != total || cell.Passed != passed {
					return bad("%s %s %s family %s: %d/%d passed, golden %d/%d",
						r.Vendor, ver, lang, r.Family, cell.Passed, cell.Total, passed, total)
				}
				verdicts += cell.Total
			}
		}
		if len(resp.Versions) == 0 {
			return bad("%s: no versions", r.Vendor)
		}
	}
	return verdicts, false, nil
}

// daemon is a running accvd child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed once the child has been reaped
	err    error         // Wait's error, valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts accvd on a free loopback port and returns once
// /healthz answers 200.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr)
	d.cmd.Dir, d.cmd.Stderr = dir, &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start accvd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("accvd exited before /healthz answered: %v: %s", d.err, d.stderr.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("accvd on %s: /healthz did not answer within 30s", addr)
		}
	}
}

// stop sends SIGTERM (accvd drains and exits), kills the child if it
// has not exited within 30 s, waits for it, and returns its own rusage.
func (d *daemon) stop() childResult {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // last resort; Wait below reaps it
		<-d.done
	}
	var res childResult
	usage(d.cmd.ProcessState, &res)
	res.Exit = d.cmd.ProcessState.ExitCode()
	return res
}

// procCPU reads a live process's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// reqTimeout bounds one HTTP request.
const reqTimeout = 60 * time.Second

// svcLog is the op log of the service workload plus its measurement
// window and per-endpoint latencies.
type svcLog struct {
	opLog
	window     time.Duration
	byEndpoint map[string][]time.Duration
}

// runService drives a closed loop of clients() clients against the
// running accvd for the given time. Each client has its own
// X-Accvd-Client id and sends its next request only when the previous
// reply has been read. Requests in flight when the time is up complete
// and count.
func runService(ctx context.Context, b *bench, d *daemon, seconds time.Duration) *svcLog {
	l := &svcLog{byEndpoint: map[string][]time.Duration{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	m := newMix(b.seed, b.golden)
	start := time.Now()
	stop := start.Add(seconds)
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: reqTimeout}
			for time.Now().Before(stop) && ctx.Err() == nil {
				r := m.next()
				verdicts, lat, mismatch, err := doRequest(client, d.addr, fmt.Sprintf("accvbench-%d", c), b.golden, r)
				mu.Lock()
				l.attempted++
				l.walls = append(l.walls, lat)
				l.byEndpoint[r.Endpoint] = append(l.byEndpoint[r.Endpoint], lat)
				l.verdicts += verdicts
				if mismatch {
					l.mismatches++
				}
				if err != nil {
					l.fail("%v", err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	l.window = time.Since(start)
	return l
}

// doRequest sends one request of the mix and checks the reply.
func doRequest(client *http.Client, addr, id string, g *golden, r svcReq) (verdicts int, lat time.Duration, mismatch bool, err error) {
	body, err := r.body()
	if err != nil {
		return 0, 0, false, err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/"+r.Endpoint, bytes.NewReader(body))
	if err != nil {
		return 0, 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Accvd-Client", id)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, time.Since(start), false, fmt.Errorf("%s: %w", r.Endpoint, err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return 0, lat, false, fmt.Errorf("%s: read reply: %w", r.Endpoint, err)
	}
	verdicts, mismatch, err = checkResponse(g, r, resp.StatusCode, reply)
	return verdicts, lat, mismatch, err
}
