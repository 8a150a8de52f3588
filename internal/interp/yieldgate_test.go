package interp_test

// The yield gate: kernel lanes call runtime.Gosched (maybeYield) so racing
// lanes interleave and the §III cross tests see lost updates, but a nest
// whose lanes cannot race gains nothing from it. runLoopLanes makes the
// Gosched rare only in nests the LaneSafety oracle proved independent,
// whose plan no bug effect altered, under no racy enclosing nest, and
// with -race-check off. These tests pin each condition, and check that the gate
// still admits the async templates that dominate suite time.

import (
	"testing"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/interp"
)

// compileRef compiles a generated source under the reference compiler.
func compileRef(t *testing.T, lang ast.Lang, src string) *compiler.Executable {
	t.Helper()
	prog := parseVariant(lang, src)
	if prog == nil {
		t.Fatal("parse failed")
	}
	exe, _, err := compiler.NewReference().Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return exe
}

// templateExe compiles one variant of a registered 1.0 template.
func templateExe(t *testing.T, name string, lang ast.Lang, cross bool) (*core.Template, *compiler.Executable) {
	t.Helper()
	for _, tpl := range core.ByLang(lang) {
		if tpl.Name != name {
			continue
		}
		functional, crossSrc, hasCross, err := tpl.Generate()
		if err != nil {
			t.Fatal(err)
		}
		src := functional
		if cross {
			if !hasCross {
				t.Fatalf("%s has no cross variant", tpl.ID())
			}
			src = crossSrc
		}
		return tpl, compileRef(t, lang, src)
	}
	t.Fatalf("template %q not registered for %v", name, lang)
	return nil, nil
}

// onlyPlan returns the executable's single loop plan.
func onlyPlan(t *testing.T, exe *compiler.Executable) *compiler.LoopPlan {
	t.Helper()
	if len(exe.Loops) != 1 {
		t.Fatalf("%d loop plans, want 1", len(exe.Loops))
	}
	for _, plan := range exe.Loops {
		return plan
	}
	return nil
}

// planAt returns the loop plan whose directive is on line.
func planAt(t *testing.T, exe *compiler.Executable, line int) *compiler.LoopPlan {
	t.Helper()
	for _, plan := range exe.Loops {
		if plan.Dir.Line == line {
			return plan
		}
	}
	t.Fatalf("no loop plan on line %d", line)
	return nil
}

// nestedSource: the gang loop stores a different value to the shared
// scalar from every lane (proven dependent); the vector loop inside it
// writes disjoint elements (proven independent).
const nestedSource = `#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#include <openacc.h>

int acc_test()
{
    int i, j, last;
    int a[8][8];
    last = 0;
    #pragma acc parallel copy(a, last) num_gangs(4)
    {
        #pragma acc loop gang
        for (i = 0; i < 8; i++) {
            last = i;
            #pragma acc loop vector
            for (j = 0; j < 8; j++) {
                a[i][j] = i + j;
            }
        }
    }
    return 1;
}
`

// remainderSource: every gang read-modify-writes the shared scalar in the
// region remainder (proven dependent) before a race-free gang loop.
const remainderSource = `#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#include <openacc.h>

int acc_test()
{
    int i, sum;
    int a[64];
    sum = 0;
    #pragma acc parallel copy(a[0:64], sum) num_gangs(8)
    {
        sum = sum + 1;
        #pragma acc loop gang
        for (i = 0; i < 64; i++) {
            a[i] = i;
        }
    }
    return sum;
}
`

func TestYieldGate(t *testing.T) {
	var quiet interp.GateSite

	t.Run("race-templates-yield", func(t *testing.T) {
		for _, name := range []string{"loop_gang_write_race", "loop_gang_reduction_race"} {
			for _, lang := range []ast.Lang{ast.LangC, ast.LangFortran} {
				_, exe := templateExe(t, name, lang, true)
				for _, plan := range exe.Loops {
					if interp.QuietNest(exe, plan, quiet) {
						t.Errorf("%s.%v cross: racy nest on line %d runs quiet", name, lang, plan.Dir.Line)
					}
				}
				_, fexe := templateExe(t, name, lang, false)
				if !interp.QuietNest(fexe, onlyPlan(t, fexe), quiet) {
					t.Errorf("%s.%v functional: race-free nest keeps yielding", name, lang)
				}
			}
		}
	})

	_, exe := templateExe(t, "loop_gang_write_race", ast.LangC, false)
	indep := onlyPlan(t, exe)

	t.Run("altered-plans-yield", func(t *testing.T) {
		flags := map[string]func(p *compiler.LoopPlan){
			"Redundant":    func(p *compiler.LoopPlan) { p.Redundant = true },
			"NoCombine":    func(p *compiler.LoopPlan) { p.NoCombine = true },
			"PartialLanes": func(p *compiler.LoopPlan) { p.PartialLanes = true },
			"CollapseSwap": func(p *compiler.LoopPlan) { p.CollapseSwap = true },
			"Gang0Only":    func(p *compiler.LoopPlan) { p.Gang0Only = true },
			"DropPlan":     func(p *compiler.LoopPlan) { p.DropPlan = true },
		}
		for name, set := range flags {
			p := *indep
			set(&p)
			if interp.QuietNest(exe, &p, quiet) {
				t.Errorf("plan with %s runs quiet", name)
			}
		}
		hooked := *exe
		hooked.Hooks.CollapseOuterOnly = true
		collapsed := *indep
		collapsed.Collapse = 2
		if interp.QuietNest(&hooked, &collapsed, quiet) {
			t.Error("collapse(2) nest under CollapseOuterOnly runs quiet")
		}
		if !interp.QuietNest(&hooked, indep, quiet) {
			t.Error("CollapseOuterOnly made an uncollapsed nest yield")
		}
		if interp.QuietNest(exe, indep, interp.GateSite{DeviceViews: true}) {
			t.Error("nest under host_data device views runs quiet")
		}
	})

	t.Run("race-check-yields", func(t *testing.T) {
		if interp.QuietNest(exe, indep, interp.GateSite{RaceCheck: true}) {
			t.Error("-race-check run runs quiet")
		}
	})

	t.Run("inner-of-racy-nest-yields", func(t *testing.T) {
		nexe := compileRef(t, ast.LangC, nestedSource)
		verdicts := map[int]analysis.LaneVerdict{}
		for _, s := range nexe.LaneSafety {
			if s.Levels != "region" {
				verdicts[s.Line] = s.Verdict
			}
		}
		const outerLine, innerLine = 13, 16
		if verdicts[outerLine] != analysis.LaneProvenDependent || verdicts[innerLine] != analysis.LaneProvenIndependent {
			t.Fatalf("oracle verdicts %v: want the outer nest dependent, the inner independent", verdicts)
		}
		outer, inner := planAt(t, nexe, outerLine), planAt(t, nexe, innerLine)
		outerQuiet := interp.QuietNest(nexe, outer, quiet)
		if outerQuiet {
			t.Error("dependent outer nest runs quiet")
		}
		if !interp.QuietNest(nexe, inner, quiet) {
			t.Error("independent inner nest yields outside a racy nest")
		}
		if interp.QuietNest(nexe, inner, interp.GateSite{InRacyNest: !outerQuiet}) {
			t.Error("independent inner nest of a racy nest runs quiet")
		}
	})

	// Gang-redundant remainder code yields whatever the nests after it
	// do, so its lost updates still show within a few seeds.
	t.Run("region-remainder-yields", func(t *testing.T) {
		rexe := compileRef(t, ast.LangC, remainderSource)
		if !interp.QuietNest(rexe, onlyPlan(t, rexe), quiet) {
			t.Fatal("the remainder's race-free gang loop keeps yielding")
		}
		lost := false
		for seed := int64(1); seed <= 20 && !lost; seed++ {
			res := interp.Run(rexe, interp.RunConfig{Seed: seed})
			if res.Err != nil {
				t.Fatalf("seed %d: %v", seed, res.Err)
			}
			lost = res.Exit != 8
		}
		if !lost {
			t.Error("no lost update in the region remainder over 20 seeds")
		}
	})

	// Non-vacuity: the async and parallel_if templates that dominate the
	// suite's run time must run quiet under the reference compiler.
	t.Run("suite-hot-nests-quiet", func(t *testing.T) {
		for _, name := range []string{"wait", "parallel_async", "update_async", "acc_async_test",
			"acc_async_test_all", "acc_async_wait", "acc_async_wait_all", "parallel_if"} {
			for _, lang := range []ast.Lang{ast.LangC, ast.LangFortran} {
				_, exe := templateExe(t, name, lang, false)
				if len(exe.Loops) == 0 {
					t.Errorf("%s.%v: no loop nest", name, lang)
				}
				for _, plan := range exe.Loops {
					if !interp.QuietNest(exe, plan, quiet) {
						t.Errorf("%s.%v: nest on line %d keeps yielding", name, lang, plan.Dir.Line)
					}
				}
			}
		}
	})

	// The racy nests keep yielding, so the cross variants still lose
	// updates and the §III certainty stays conclusive.
	t.Run("race-templates-conclusive", func(t *testing.T) {
		for _, name := range []string{"loop_gang_write_race", "loop_gang_reduction_race"} {
			for _, lang := range []ast.Lang{ast.LangC, ast.LangFortran} {
				tpl, _ := templateExe(t, name, lang, true)
				res := core.RunTest(core.Config{Toolchain: compiler.NewReference()}, tpl)
				if res.Outcome != core.Pass {
					t.Errorf("%s: outcome %v (%s)", tpl.ID(), res.Outcome, res.Detail)
				}
				if !res.Cert.Conclusive() {
					t.Errorf("%s: cross certainty inconclusive (%d/%d cross runs failed)", tpl.ID(), res.Cert.CrossFail, res.Cert.M)
				}
			}
		}
	})
}
