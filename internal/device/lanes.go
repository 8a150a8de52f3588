package device

import (
	"sync"
	"sync/atomic"
)

// maxIdleLanes caps the lane goroutines parked between launches. A default
// launch fans out to 8 gangs × 4 workers, so the cap covers a couple of
// concurrent suites; a wider launch starts the extra lanes fresh and they
// exit when they finish.
const maxIdleLanes = 64

// laneTask is one lane of a RunLanes call.
type laneTask struct {
	fn func(i int)
	i  int
	wg *sync.WaitGroup
}

var (
	// laneWork hands a task to a parked lane. It is unbuffered: a send
	// succeeds only when a lane is already waiting, so RunLanes never
	// queues work behind a busy lane.
	laneWork = make(chan laneTask)
	// idleLanes counts lanes parked on laneWork or about to park.
	idleLanes atomic.Int32
)

// RunLanes runs fn(0), …, fn(n-1) concurrently and returns when all have
// returned. Each index runs on its own goroutine: a parked lane when one is
// idle, otherwise a fresh one, so a lane that itself calls RunLanes (a
// kernels-mode gang fan-out, a worker split) never waits for a lane to free
// up. Parked lanes keep the stacks their kernels grew, so a short launch
// does not grow them again. A single lane runs on the caller.
func RunLanes(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		t := laneTask{fn: fn, i: i, wg: &wg}
		select {
		case laneWork <- t:
		default:
			go lane(t)
		}
	}
	wg.Wait()
}

// lane runs its task, then parks for the next one unless maxIdleLanes
// lanes are parked already.
func lane(t laneTask) {
	for {
		t.fn(t.i)
		t.wg.Done()
		if idleLanes.Add(1) > maxIdleLanes {
			idleLanes.Add(-1)
			return
		}
		t = <-laneWork
		idleLanes.Add(-1)
	}
}
