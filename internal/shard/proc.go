// ProcWorker and ServeStdio: the forked-subprocess worker. The parent
// writes RunRequest JSON values to the child's stdin and reads reply
// values from its stdout; the child loops in ServeStdio until stdin
// closes. One request is in flight at a time per worker, so a dead child
// is always attributable to exactly one unit — the coordinator re-queues
// it and respawns the worker through its Factory.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"

	"accv/internal/sweep"
)

// ProcWorker speaks the stdio shard protocol to one subprocess, started
// lazily on the first Run. After the subprocess dies (crash, kill, or a
// deadline-forced abort) the worker is spent: every later Run reports
// sweep.ErrWorkerDown and the coordinator replaces it.
type ProcWorker struct {
	argv []string
	env  []string

	mu   sync.Mutex
	cmd  *exec.Cmd
	in   io.WriteCloser
	dec  *json.Decoder
	dead bool

	// proc mirrors cmd.Process lock-free so Kill can fire while a Run
	// holds mu blocked on the worker's reply.
	proc atomic.Pointer[os.Process]
}

// NewProcWorker builds a worker that will fork argv (argv[0] is the
// binary). env nil inherits the parent environment.
func NewProcWorker(argv []string, env []string) *ProcWorker {
	return &ProcWorker{argv: argv, env: env}
}

// ProcFactory returns a Factory forking fresh copies of argv — the
// respawn half of crash recovery.
func ProcFactory(argv []string, env []string) sweep.Factory {
	return func() (sweep.Worker, error) { return NewProcWorker(argv, env), nil }
}

func (w *ProcWorker) start() error {
	cmd := exec.Command(w.argv[0], w.argv[1:]...)
	cmd.Env = w.env
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	w.cmd, w.in, w.dec = cmd, in, json.NewDecoder(out)
	w.proc.Store(cmd.Process)
	return nil
}

// procReply is the child's per-unit response envelope: a result, or an
// error message for a unit that failed inside a healthy worker (the
// worker stays up; the coordinator retries the unit elsewhere).
type procReply struct {
	Result *sweep.UnitResult `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// Run dispatches one unit to the subprocess. Context expiry kills the
// subprocess — the stdio protocol has no way to abandon one response
// mid-stream — and reports sweep.ErrWorkerDown so the coordinator respawns.
func (w *ProcWorker) Run(ctx context.Context, u sweep.Unit, spec sweep.Spec) (*sweep.UnitResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return nil, fmt.Errorf("shard: unit %s: %w", u, sweep.ErrWorkerDown)
	}
	if w.cmd == nil {
		if err := w.start(); err != nil {
			w.dead = true
			return nil, fmt.Errorf("shard: starting worker: %v: %w", err, sweep.ErrWorkerDown)
		}
	}
	if err := json.NewEncoder(w.in).Encode(sweep.RunRequest{Unit: u, Spec: spec}); err != nil {
		return nil, w.died(u, err)
	}
	type reply struct {
		rep procReply
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		var rep procReply
		ch <- reply{rep, w.dec.Decode(&rep)}
	}()
	select {
	case <-ctx.Done():
		w.kill()
		<-ch // the decode fails once the pipe closes; don't leak the goroutine
		w.reap()
		return nil, fmt.Errorf("shard: unit %s: %v: %w", u, ctx.Err(), sweep.ErrWorkerDown)
	case r := <-ch:
		if r.err != nil {
			return nil, w.died(u, r.err)
		}
		if r.rep.Error != "" {
			return nil, fmt.Errorf("shard: unit %s: worker: %s", u, r.rep.Error)
		}
		if r.rep.Result == nil {
			return nil, w.died(u, errors.New("empty reply"))
		}
		return r.rep.Result, nil
	}
}

// died marks the worker spent after a protocol failure (EOF means the
// subprocess crashed mid-unit).
func (w *ProcWorker) died(u sweep.Unit, cause error) error {
	w.kill()
	w.reap()
	return fmt.Errorf("shard: unit %s: worker died: %v: %w", u, cause, sweep.ErrWorkerDown)
}

// Kill terminates the subprocess abruptly (SIGKILL on unix) — the
// crash-recovery tests' injection point. Safe to call from another
// goroutine while a Run is blocked on the worker's reply; that Run then
// fails with sweep.ErrWorkerDown.
func (w *ProcWorker) Kill() {
	if p := w.proc.Load(); p != nil {
		p.Kill()
	}
}

func (w *ProcWorker) kill() {
	if w.cmd != nil && w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}

func (w *ProcWorker) reap() {
	if w.cmd != nil {
		w.cmd.Wait()
	}
	w.dead = true
}

// Close shuts the worker down: closing stdin lets a healthy child exit
// on EOF; Wait reaps it either way.
func (w *ProcWorker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cmd == nil || w.dead {
		w.dead = true
		return nil
	}
	w.in.Close()
	err := w.cmd.Wait()
	w.dead = true
	return err
}

// ServeStdio is the worker-process side: decode RunRequests from r, run
// each on the executor, encode one procReply per request to w. Returns
// nil on clean EOF. This is what `accval shard-worker` runs over
// stdin/stdout.
func ServeStdio(r io.Reader, w io.Writer, ex *sweep.Executor) error {
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	for {
		var req sweep.RunRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("shard worker: decoding request: %w", err)
		}
		res, err := ex.Run(context.Background(), req.Unit, req.Spec)
		rep := procReply{Result: res}
		if err != nil {
			rep = procReply{Error: err.Error()}
		}
		if err := enc.Encode(rep); err != nil {
			return fmt.Errorf("shard worker: writing reply: %w", err)
		}
	}
}
