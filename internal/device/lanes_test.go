package device

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunLanesIdleBound launches more concurrent lanes than the idle cap
// and checks that at most maxIdleLanes of them stay parked afterwards: the
// rest exit instead of growing the pool.
func TestRunLanesIdleBound(t *testing.T) {
	const n = maxIdleLanes + 36
	before := runtime.NumGoroutine()
	var arrived sync.WaitGroup
	arrived.Add(n)
	release := make(chan struct{})
	var ran [n]atomic.Int32
	go func() {
		arrived.Wait() // all n lanes are running at once
		close(release)
	}()
	RunLanes(n, func(i int) {
		ran[i].Add(1)
		arrived.Done()
		<-release
	})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("lane %d ran %d times", i, got)
		}
	}
	if idle := idleLanes.Load(); idle > maxIdleLanes {
		t.Fatalf("%d idle lanes, cap %d", idle, maxIdleLanes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+maxIdleLanes {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the launch, %d before, cap %d", runtime.NumGoroutine(), before, maxIdleLanes)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLanesNested runs lanes that fan out again, as a kernels-mode gang
// and a worker split do: every lane busy must not stall the inner call.
func TestRunLanesNested(t *testing.T) {
	var count atomic.Int64
	RunLanes(8, func(int) {
		RunLanes(maxIdleLanes, func(int) { count.Add(1) })
	})
	if got := count.Load(); got != 8*maxIdleLanes {
		t.Fatalf("ran %d inner lanes, want %d", got, 8*maxIdleLanes)
	}
}
