package interp_test

// Property tests of the loop-partitioning invariant: a partitioned loop
// executes every iteration exactly once, whatever combination of levels,
// launch configuration, collapse depth, and iteration count is used. This
// is the invariant the whole cross-test methodology stands on — redundant
// or partial execution must only ever come from injected bugs.

import (
	"fmt"
	"testing"
	"testing/quick"

	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/interp"
)

// partitionProgram builds a program whose kernel increments every element
// of a counter array once through the requested schedule, then verifies on
// the host that every counter is exactly 1.
func partitionProgram(levels string, gangs, workers, vlen, n int) string {
	return fmt.Sprintf(`
int acc_test()
{
    int n = %d;
    int i, errors;
    int hits[512];
    for (i = 0; i < n; i++) hits[i] = 0;
    #pragma acc parallel copy(hits[0:n]) num_gangs(%d) num_workers(%d) vector_length(%d)
    {
        #pragma acc loop %s
        for (i = 0; i < n; i++)
            hits[i] = hits[i] + 1;
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (hits[i] != 1) errors++;
    }
    return (errors == 0);
}
`, n, gangs, workers, vlen, levels)
}

func runSrc(t *testing.T, src string, seed int64) interp.Result {
	t.Helper()
	prog, err := cfront.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	exe, _, err := compiler.Compile(prog, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return interp.Run(exe, interp.RunConfig{Seed: seed})
}

func TestPartitionExactlyOnce(t *testing.T) {
	schedules := []string{"gang", "worker", "vector", "gang worker",
		"gang vector", "worker vector", "gang worker vector"}
	f := func(g8, w8, v8, n16 uint8, pick uint8, seed int64) bool {
		gangs := int(g8%8) + 1
		workers := int(w8%4) + 1
		vlen := int(v8%16) + 1
		n := int(n16)%512 + 1
		sched := schedules[int(pick)%len(schedules)]
		if sched == "worker" || sched == "vector" || sched == "worker vector" {
			// Without a gang level the loop runs gang-redundantly (that is
			// the specification's gang-redundant mode, and exactly what the
			// Fig. 2 cross test observes); exactly-once needs one gang.
			gangs = 1
		}
		src := partitionProgram(sched, gangs, workers, vlen, n)
		res := runSrc(t, src, seed)
		if res.Err != nil {
			t.Logf("run error: %v", res.Err)
			return false
		}
		if res.Exit != 1 {
			t.Logf("schedule %q gangs=%d workers=%d vlen=%d n=%d: not exactly-once",
				sched, gangs, workers, vlen, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCollapsePartitionExactlyOnce(t *testing.T) {
	f := func(r8, c8, g8 uint8, seed int64) bool {
		rows := int(r8%12) + 1
		cols := int(c8%12) + 1
		gangs := int(g8%8) + 1
		src := fmt.Sprintf(`
int acc_test()
{
    int rows = %d;
    int cols = %d;
    int i, j, errors;
    int hits[12][12];
    for (i = 0; i < rows; i++)
        for (j = 0; j < cols; j++)
            hits[i][j] = 0;
    #pragma acc parallel copy(hits) num_gangs(%d)
    {
        #pragma acc loop gang collapse(2)
        for (i = 0; i < rows; i++)
            for (j = 0; j < cols; j++)
                hits[i][j] = hits[i][j] + 1;
    }
    errors = 0;
    for (i = 0; i < rows; i++)
        for (j = 0; j < cols; j++)
            if (hits[i][j] != 1) errors++;
    return (errors == 0);
}
`, rows, cols, gangs)
		res := runSrc(t, src, seed)
		return res.Err == nil && res.Exit == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNegativeStrideLoops: downward-counting canonical loops partition
// exactly once too.
func TestNegativeStrideLoops(t *testing.T) {
	src := `
int acc_test()
{
    int n = 100;
    int i, errors;
    int hits[100];
    for (i = 0; i < n; i++) hits[i] = 0;
    #pragma acc parallel copy(hits[0:n]) num_gangs(4)
    {
        #pragma acc loop gang
        for (i = n - 1; i >= 0; i--)
            hits[i] = hits[i] + 1;
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (hits[i] != 1) errors++;
    }
    return (errors == 0);
}
`
	res := runSrc(t, src, 5)
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("downward loop: %v exit=%d", res.Err, res.Exit)
	}
}

// TestStridedLoops: step sizes other than one cover the right index set.
func TestStridedLoops(t *testing.T) {
	src := `
int acc_test()
{
    int n = 90;
    int i, errors;
    int hits[90];
    for (i = 0; i < n; i++) hits[i] = 0;
    #pragma acc parallel copy(hits[0:n]) num_gangs(3)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i += 3)
            hits[i] = hits[i] + 1;
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        int want = ((i % 3) == 0);
        if (hits[i] != want) errors++;
    }
    return (errors == 0);
}
`
	res := runSrc(t, src, 6)
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("strided loop: %v exit=%d", res.Err, res.Exit)
	}
}

// TestEmptyIterationSpace: loops whose bounds exclude all iterations run
// zero times on every lane.
func TestEmptyIterationSpace(t *testing.T) {
	src := `
int acc_test()
{
    int touched = 0;
    int i;
    #pragma acc parallel copy(touched) num_gangs(8)
    {
        #pragma acc loop gang
        for (i = 5; i < 5; i++)
            touched = 1;
    }
    return (touched == 0);
}
`
	res := runSrc(t, src, 7)
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("empty loop: %v exit=%d", res.Err, res.Exit)
	}
}

// TestLoopWorkerArgClamped pins worker(n) on a loop to the backend's
// worker limit (64 on CUDA), as num_workers on the region is: 130
// iterations over 65 or 100 workers cost the simulated cycles of 64
// workers, where the slowest worker runs three iterations, not two.
func TestLoopWorkerArgClamped(t *testing.T) {
	cycles := func(workers int) int64 {
		res := runSrc(t, partitionProgram(fmt.Sprintf("worker(%d)", workers), 1, 4, 1, 130), 1)
		if res.Err != nil || res.Exit != 1 {
			t.Fatalf("worker(%d): %v exit=%d", workers, res.Err, res.Exit)
		}
		return res.SimCycles
	}
	limit := cycles(64)
	for _, w := range []int{65, 100} {
		if got := cycles(w); got != limit {
			t.Errorf("worker(%d) cost %d simulated cycles, worker(64) %d", w, got, limit)
		}
	}
}
