// HTTPWorker: dispatch units to a remote accvd instance through its
// POST /v1/shard/run endpoint (docs/SERVICE.md). Unlike a subprocess, a
// remote worker survives its own unit failures — errors here are unit
// errors the coordinator retries against the budget, never
// sweep.ErrWorkerDown — and context expiry simply cancels the HTTP
// request (the daemon unwinds the run cooperatively).
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"accv/internal/sweep"
)

// HTTPWorker runs units on one accvd base URL ("http://host:port").
type HTTPWorker struct {
	base   string
	client *http.Client
}

// NewHTTPWorker builds a worker for one accvd base URL. client nil uses
// http.DefaultClient (per-unit deadlines arrive via the context).
func NewHTTPWorker(base string, client *http.Client) *HTTPWorker {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPWorker{base: strings.TrimRight(base, "/"), client: client}
}

// Run POSTs the unit and decodes the sweep.UnitResult (or the accvd error
// envelope, surfaced as an ordinary retryable unit error).
func (w *HTTPWorker) Run(ctx context.Context, u sweep.Unit, spec sweep.Spec) (*sweep.UnitResult, error) {
	body, err := json.Marshal(sweep.RunRequest{Unit: u, Spec: spec})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.base+"/v1/shard/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard: unit %s: %s: %w", u, w.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &env) == nil && env.Error.Code != "" {
			return nil, fmt.Errorf("shard: unit %s: %s: %s: %s", u, w.base, env.Error.Code, env.Error.Message)
		}
		return nil, fmt.Errorf("shard: unit %s: %s: HTTP %d", u, w.base, resp.StatusCode)
	}
	var res sweep.UnitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("shard: unit %s: %s: decoding result: %w", u, w.base, err)
	}
	return &res, nil
}

// Close is a no-op: the daemon is not ours to shut down.
func (w *HTTPWorker) Close() error { return nil }
