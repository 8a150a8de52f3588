package vendors

import (
	"testing"

	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/directive"
	"accv/internal/interp"
)

// runWith compiles src with a synthetic vendor carrying exactly the given
// bugs, then runs it.
func runWith(t *testing.T, src string, bugs ...Bug) interp.Result {
	t.Helper()
	v := &Vendor{
		name: "test", version: "1.0",
		opts:   compiler.Options{Name: "test", Version: "1.0"},
		devCfg: device.Config{},
		bugs:   bugs,
	}
	prog, err := cfront.Parse(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	exe, _, err := v.Compile(prog)
	if err != nil {
		return interp.Result{Err: err}
	}
	return interp.Run(exe, interp.RunConfig{
		Platform: device.NewPlatform(device.Config{}, 1),
		Seed:     3,
	})
}

const copySrc = `
int acc_test() {
    int n = 16;
    int i, errors;
    int a[16];
    for (i = 0; i < n; i++) a[i] = i;
    #pragma acc parallel copy(a[0:n]) num_gangs(2)
    {
        #pragma acc loop
        for (i = 0; i < n; i++) a[i] = a[i] + 1;
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != i + 1) errors++;
    }
    return (errors == 0);
}
`

func TestEffectSkipDataBreaksCopy(t *testing.T) {
	clean := runWith(t, copySrc)
	if clean.Err != nil || clean.Exit != 1 {
		t.Fatalf("bug-free vendor must pass: %v exit=%d", clean.Err, clean.Exit)
	}
	broken := runWith(t, copySrc,
		bug(ast.LangC, "b", "copy skip", "", "", skipData(directive.Copy, onParallel)))
	if broken.Err != nil {
		t.Fatal(broken.Err)
	}
	if broken.Exit == 1 {
		t.Error("skipData(copy) must produce a silent wrong result")
	}
}

func TestEffectVersionGating(t *testing.T) {
	b := bug(ast.LangC, "b", "gated", "", "",
		Effect{Action: ActSkipData, Clause: directive.Copy, Constructs: onParallel,
			ExplicitOnly: true, MaxVersion: "2.0"})
	mk := func(version string) *Vendor {
		return &Vendor{name: "t", version: version, bugs: []Bug{b}}
	}
	prog, _ := cfront.Parse(copySrc)
	exe, _, err := mk("1.5").Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if exe.Regions == nil {
		t.Fatal("no regions")
	}
	affected := false
	for _, r := range exe.Regions {
		if r.SkipDataExplicit[directive.Copy] {
			affected = true
		}
	}
	if !affected {
		t.Error("effect must apply at 1.5 (≤ MaxVersion)")
	}
	prog2, _ := cfront.Parse(copySrc)
	exe2, _, err := mk("2.1").Compile(prog2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range exe2.Regions {
		if r.SkipDataExplicit[directive.Copy] {
			t.Error("effect must not apply past MaxVersion")
		}
	}
}

func TestEffectRejectNonConstDims(t *testing.T) {
	src := `
int acc_test() {
    int g = 4;
    int s = 0;
    #pragma acc parallel num_gangs(g) reduction(+:s)
    { s++; }
    return (s == 4);
}
`
	res := runWith(t, src,
		bug(ast.LangC, "b", "const only", "", "", rejectNonConstDim(directive.NumGangs)))
	if res.Err == nil {
		t.Fatal("non-constant num_gangs must be rejected")
	}
	constSrc := `
int acc_test() {
    int s = 0;
    #pragma acc parallel num_gangs(4) reduction(+:s)
    { s++; }
    return (s == 4);
}
`
	res = runWith(t, constSrc,
		bug(ast.LangC, "b", "const only", "", "", rejectNonConstDim(directive.NumGangs)))
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("constant form must still work: %v exit=%d", res.Err, res.Exit)
	}
}

func TestEffectNoCombineSelectsOperator(t *testing.T) {
	src := `
int acc_test() {
    int i;
    int s = 0;
    int a[8];
    for (i = 0; i < 8; i++) a[i] = 1;
    #pragma acc kernels loop reduction(+:s)
    for (i = 0; i < 8; i++) s = s + a[i];
    return (s == 8);
}
`
	res := runWith(t, src, bug(ast.LangC, "b", "mul broken", "", "", noCombine("*")))
	if res.Exit != 1 {
		t.Error("a * reduction bug must not affect + reductions")
	}
	res = runWith(t, src, bug(ast.LangC, "b", "add broken", "", "", noCombine("+")))
	if res.Exit == 1 {
		t.Error("noCombine(+) must break the + reduction")
	}
}

func TestEffectDropLaunchClause(t *testing.T) {
	src := `
int acc_test() {
    int s = 0;
    #pragma acc parallel num_gangs(5) reduction(+:s)
    { s++; }
    return (s == 5);
}
`
	res := runWith(t, src,
		bug(ast.LangC, "b", "num_gangs ignored", "", "", dropLaunch(directive.NumGangs, onParallel)))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Exit == 1 {
		t.Error("with num_gangs dropped the default gang count applies and the check fails")
	}
}

func TestEffectForceSyncAndHooks(t *testing.T) {
	src := `
int acc_test() {
    int n = 20000;
    int i;
    int a[20000];
    for (i = 0; i < n; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:n]) async(1)
    {
        #pragma acc loop
        for (i = 0; i < n; i++) a[i] = 1;
    }
    int busy = acc_async_test(1);
    #pragma acc wait(1)
    return (busy == 0);
}
`
	res := runWith(t, src)
	if res.Exit != 1 {
		t.Fatalf("async region must be pending right after launch (exit %d, err %v)", res.Exit, res.Err)
	}
	res = runWith(t, src, bug(ast.LangC, "b", "sync", "", "", forceSync(onParallel)))
	if res.Exit == 1 {
		t.Error("forceSync must drain the queue before acc_async_test")
	}
	res = runWith(t, src, bug(ast.LangC, "b", "stale", "", "",
		hookFx(func(h *compiler.Hooks) { h.AsyncTestStale = true })))
	if res.Exit == 1 {
		t.Error("a stale acc_async_test returns -1, failing the busy==0 check")
	}
}

func TestEffectSharePrivatesRaces(t *testing.T) {
	src := `
int acc_test() {
    int n = 256;
    int i, errors;
    int t = 0;
    int a[256];
    for (i = 0; i < n; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:n]) num_gangs(8) private(t)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            t = i*3;
            a[i] = t + 1;
        }
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != 3*i + 1) errors++;
    }
    return (errors == 0);
}
`
	// With shared privates the gangs race through t; over a few seeds at
	// least one run must go wrong.
	sawFailure := false
	for seed := int64(0); seed < 6 && !sawFailure; seed++ {
		v := &Vendor{name: "t", version: "1", bugs: []Bug{
			bug(ast.LangC, "b", "shared privates", "", "", sharePrivates(onParallel)),
		}}
		prog, _ := cfront.Parse(src)
		exe, _, err := v.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		r := interp.Run(exe, interp.RunConfig{Platform: device.NewPlatform(device.Config{}, 1), Seed: seed})
		if r.Exit != 1 {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("shared private copies never raced in 6 seeds")
	}
}

func TestEffectRegionDropReductionRaces(t *testing.T) {
	src := `
int acc_test() {
    int n = 256;
    int i;
    int sum = 0;
    int a[256];
    for (i = 0; i < n; i++) a[i] = 1;
    #pragma acc parallel copyin(a[0:n]) copy(sum) num_gangs(8) reduction(+:sum)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            sum = sum + a[i];
        }
    }
    return sum;
}
`
	// The gang loop is proven independent while the reduction privatizes
	// sum per gang. With the clause dropped the gangs share sum, so the
	// nest must keep yielding and lose updates within a few seeds.
	lost := false
	for seed := int64(0); seed < 6 && !lost; seed++ {
		v := &Vendor{name: "t", version: "1", bugs: []Bug{
			bug(ast.LangC, "b", "dropped reduction", "", "", regionDropReduction(onParallel)),
		}}
		prog, _ := cfront.Parse(src)
		exe, _, err := v.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		r := interp.Run(exe, interp.RunConfig{Platform: device.NewPlatform(device.Config{}, 1), Seed: seed})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		lost = r.Exit != 256
	}
	if !lost {
		t.Error("gangs sharing the dropped reduction's variable never lost an update in 6 seeds")
	}
}

// TestEffectRegionDropReductionDeclinesBatch is the SPMD engine's side of
// TestEffectRegionDropReductionRaces: a nest the engine batches in an
// intact region must fall back, as region-altered, once a dropped
// reduction makes the region's gangs share sum — the batched path has no
// yield points, so it would run the altered region on a schedule the
// oracle never judged.
func TestEffectRegionDropReductionDeclinesBatch(t *testing.T) {
	src := `
int acc_test() {
    int n = 256;
    int i, errors;
    int sum = 0;
    int a[256];
    for (i = 0; i < n; i++) a[i] = i;
    #pragma acc parallel copy(a[0:n]) copy(sum) num_gangs(8) reduction(+:sum)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            a[i] = a[i] + 1;
        }
        sum = sum + 1;
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != i + 1) errors++;
    }
    return (errors == 0);
}
`
	run := func(bugs []Bug) interp.Result {
		t.Helper()
		v := &Vendor{name: "t", version: "1", bugs: bugs}
		prog, _ := cfront.Parse(src)
		exe, _, err := v.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		r := interp.Run(exe, interp.RunConfig{Platform: device.NewPlatform(device.Config{}, 1), Engine: interp.EngineSPMD})
		if r.Err != nil || r.Exit != 1 {
			t.Fatalf("exit=%d err=%v", r.Exit, r.Err)
		}
		return r
	}
	if r := run(nil); r.SpmdBatchedNests == 0 {
		t.Fatalf("the nest does not batch in the intact region (fallbacks %v)", r.SpmdFallbacks)
	}
	r := run([]Bug{bug(ast.LangC, "b", "dropped reduction", "", "", regionDropReduction(onParallel))})
	if r.SpmdBatchedNests != 0 || r.SpmdFallbacks["region-altered"] == 0 {
		t.Fatalf("batched %d nests, fallbacks %v; want the nest declined as region-altered", r.SpmdBatchedNests, r.SpmdFallbacks)
	}
}

func TestEffectLoopDropMakesRedundantExecution(t *testing.T) {
	src := `
int acc_test() {
    int n = 64;
    int i, errors;
    int a[64];
    for (i = 0; i < n; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:n]) num_gangs(8)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) a[i] = a[i] + 1;
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != 1) errors++;
    }
    return (errors == 0);
}
`
	sawFailure := false
	for seed := int64(0); seed < 6 && !sawFailure; seed++ {
		v := &Vendor{name: "t", version: "1", bugs: []Bug{
			bug(ast.LangC, "b", "loop ignored", "", "", loopDrop(directive.Gang)),
		}}
		prog, _ := cfront.Parse(src)
		exe, _, err := v.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		r := interp.Run(exe, interp.RunConfig{Platform: device.NewPlatform(device.Config{}, 1), Seed: seed})
		if r.Exit != 1 {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("dropped loop plan never produced a redundant-execution failure in 6 seeds")
	}
}

func TestBugsOnlyApplyToTheirLanguage(t *testing.T) {
	v := &Vendor{name: "t", version: "1", bugs: []Bug{
		bug(ast.LangFortran, "b", "fortran only", "", "", skipData(directive.Copy, onParallel)),
	}}
	prog, _ := cfront.Parse(copySrc)
	exe, _, err := v.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range exe.Regions {
		if r.SkipDataExplicit != nil && r.SkipDataExplicit[directive.Copy] {
			t.Error("a Fortran bug must not affect C compilation")
		}
	}
}
