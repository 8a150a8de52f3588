package interp_test

// Tree-vs-VM agreement on array subscripts. The VM reads and writes
// in-range 1-D unboxed array elements directly and leaves every other
// subscript — errors included — to its generic path; each case here must
// give the tree-walker's exit value, output and error text.

import (
	"regexp"
	"strings"
	"testing"

	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/ffront"
	"accv/internal/interp"
)

// bufID matches the buffer serial in diagnostics ("device:a#12"), which
// counts allocations process-wide and so differs between two runs.
var bufID = regexp.MustCompile(`#[0-9]+`)

func TestSubscriptTreeVsVM(t *testing.T) {
	cases := []struct {
		name    string
		lang    ast.Lang
		src     string
		wantErr string // substring of the expected error; "" for none
	}{
		{name: "in range load store aug", lang: ast.LangC, src: `
int acc_test()
{
    int i;
    int a[16];
    double d[16];
    float f[16];
    for (i = 0; i < 16; i++) { a[i] = i; d[i] = i * 0.5; f[i] = 0; }
    #pragma acc parallel copy(a[0:16], d[0:16], f[0:16]) num_gangs(4)
    {
        #pragma acc loop gang
        for (i = 0; i < 16; i++) {
            a[i] += 3;
            d[i] = d[i] * 2.0 + a[i];
            f[i] = d[i] / 3.0;
            a[i] = d[i] + 0.75;
        }
    }
    for (i = 0; i < 16; i++) printf("%d %g %g\n", a[i], d[i], f[i]);
    return a[15];
}`},
		{name: "host negative index", lang: ast.LangC, wantErr: "index -1 out of range", src: `
int acc_test()
{
    int i = 0;
    int a[10];
    a[i - 1] = 1;
    return 1;
}`},
		{name: "host past the end load", lang: ast.LangC, wantErr: "index 10 out of range", src: `
int acc_test()
{
    int i = 10;
    int a[10];
    return a[i];
}`},
		{name: "kernel past the end aug", lang: ast.LangC, wantErr: "index 12 out of range", src: `
int acc_test()
{
    int i;
    int a[12];
    for (i = 0; i < 12; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:12]) num_gangs(2)
    {
        #pragma acc loop gang
        for (i = 0; i < 12; i++) a[i + 1] += 1;
    }
    return 1;
}`},
		{name: "section mirror with bias", lang: ast.LangC, src: `
int acc_test()
{
    int i, s = 0;
    int a[40];
    for (i = 0; i < 40; i++) a[i] = i;
    #pragma acc parallel copy(a[10:20]) num_gangs(2)
    {
        #pragma acc loop gang
        for (i = 10; i < 30; i++) a[i] = a[i] * 3;
    }
    for (i = 0; i < 40; i++) s = s + a[i];
    printf("%d\n", s);
    return s;
}`},
		{name: "section mirror below the section", lang: ast.LangC, wantErr: "out of range", src: `
int acc_test()
{
    int i;
    int a[40];
    for (i = 0; i < 40; i++) a[i] = i;
    #pragma acc parallel copyin(a[10:20]) num_gangs(1)
    {
        i = 5;
        a[i] = a[i + 5];
    }
    return 1;
}`},
		{name: "section mirror past the section", lang: ast.LangC, wantErr: "out of range", src: `
int acc_test()
{
    int i, r = 0;
    int a[40];
    for (i = 0; i < 40; i++) a[i] = i;
    #pragma acc parallel copyin(a[10:20]) copy(r) num_gangs(1)
    {
        i = 30;
        r = a[i];
    }
    return r;
}`},
		{name: "float subscripts", lang: ast.LangC, src: `
int acc_test()
{
    int a[8];
    double x = 2.9;
    float y = 5.2;
    a[0] = 0; a[1] = 0; a[2] = 0; a[5] = 0;
    a[x] = 7;
    a[y] += 4;
    printf("%d %d %d\n", a[2], a[5], a[x]);
    return a[2] + a[y];
}`},
		{name: "float subscript out of range", lang: ast.LangC, wantErr: "index 8 out of range", src: `
int acc_test()
{
    int a[8];
    double x = 8.5;
    a[x] = 1;
    return 1;
}`},
		{name: "host touches device memory", lang: ast.LangC, wantErr: "host dereference of device pointer", src: `
int acc_test()
{
    int i = 1;
    int *d = (int*) acc_malloc(8 * sizeof(int));
    d[i] = 3;
    return d[i];
}`},
		{name: "host touches device memory through a library", lang: ast.LangC, src: `
void cudaSet(int *d, int n)
{
    int i;
    for (i = 0; i < n; i++) d[i] = i + 1;
    d[2] += 10;
}

int acc_test()
{
    int s = 0;
    int i;
    int a[8];
    for (i = 0; i < 8; i++) a[i] = 0;
    #pragma acc data copy(a[0:8])
    {
        #pragma acc host_data use_device(a)
        {
            cudaSet(a, 8);
        }
    }
    for (i = 0; i < 8; i++) s = s + a[i];
    return s;
}`},
		{name: "kernel subscripts a device pointer", lang: ast.LangC, src: `
int acc_test()
{
    int i, s = 0;
    int out[16];
    int *d = (int*) acc_malloc(16 * sizeof(int));
    #pragma acc parallel deviceptr(d) copyout(out[0:16]) num_gangs(2)
    {
        #pragma acc loop gang
        for (i = 0; i < 16; i++) {
            d[i] = i * 5;
            d[i] += 1;
            out[i] = d[i];
        }
    }
    acc_free(d);
    for (i = 0; i < 16; i++) s = s + out[i];
    return s;
}`},
		{name: "kernel device pointer out of range", lang: ast.LangC, wantErr: "out of range", src: `
int acc_test()
{
    int i;
    int *d = (int*) acc_malloc(16 * sizeof(int));
    #pragma acc parallel deviceptr(d) num_gangs(2)
    {
        #pragma acc loop gang
        for (i = 0; i < 16; i++) d[i + 1] = i;
    }
    return 1;
}`},
		{name: "array parameter", lang: ast.LangC, src: `
int bump(int a[], int i)
{
    a[i] += 2;
    return a[i + 1];
}

int acc_test()
{
    int b[10];
    int i;
    for (i = 0; i < 10; i++) b[i] = i;
    return bump(b + 2, 3) * 100 + b[5];
}`},
		{name: "array parameter out of range", lang: ast.LangC, wantErr: "index 8 out of range [0,8)", src: `
int get(int a[], int i)
{
    return a[i];
}

int acc_test()
{
    int b[10];
    return get(b + 2, 8);
}`},
		{name: "host function subscripts a device array parameter", lang: ast.LangC, wantErr: "host code accesses device-resident variable", src: `
void set(int d[], int n)
{
    d[1] = n;
}

int acc_test()
{
    int a[8];
    a[1] = 0;
    #pragma acc data copy(a[0:8])
    {
        #pragma acc host_data use_device(a)
        {
            set(a, 8);
        }
    }
    return a[1];
}`},
		{name: "pointer subscripts", lang: ast.LangC, src: `
int acc_test()
{
    int i;
    int a[10];
    int *p;
    for (i = 0; i < 10; i++) a[i] = i * i;
    p = a + 2;
    p[1] = p[3] + 100;
    p[0] += 5;
    printf("%d %d\n", a[3], a[2]);
    return p[1];
}`},
		{name: "pointer subscript out of range", lang: ast.LangC, wantErr: "out of range", src: `
int acc_test()
{
    int a[10];
    int *p = a;
    int i = 11;
    return p[i];
}`},
		{name: "two-dimensional", lang: ast.LangC, src: `
int acc_test()
{
    int i, j, s = 0;
    int b[6][5];
    for (i = 0; i < 6; i++)
        for (j = 0; j < 5; j++) b[i][j] = i * 10 + j;
    #pragma acc parallel copy(b) num_gangs(2)
    {
        #pragma acc loop gang
        for (i = 0; i < 6; i++) {
            for (j = 0; j < 5; j++) b[i][j] += 1;
        }
    }
    for (i = 0; i < 6; i++)
        for (j = 0; j < 5; j++) s = s + b[i][j];
    printf("%d\n", s);
    return s;
}`},
		{name: "two-dimensional out of range", lang: ast.LangC, wantErr: "dimension 2", src: `
int acc_test()
{
    int i = 2, j = 5;
    int b[6][5];
    b[i][j] = 1;
    return 1;
}`},
		{name: "fortran lower bound one", lang: ast.LangFortran, src: `
program t
  integer :: i, s
  integer :: a(10)
  real :: r(10)
  do i = 1, 10
    a(i) = i
    r(i) = 0.5 * i
  end do
  !$acc parallel copy(a(1:10), r(1:10)) num_gangs(2)
  !$acc loop gang
  do i = 1, 10
    a(i) = a(i) * 2 + 1
    r(i) = r(i) + a(i)
  end do
  !$acc end parallel
  s = 0
  do i = 1, 10
    s = s + a(i) + int(r(i))
  end do
  print *, s
  test_result = s
end program t
`},
		{name: "fortran index zero", lang: ast.LangFortran, wantErr: "index 0 out of range [1,11)", src: `
program t
  integer :: i
  integer :: a(10)
  i = 0
  a(i) = 1
  test_result = 1
end program t
`},
		{name: "fortran section bias", lang: ast.LangFortran, src: `
program t
  integer :: i, s
  integer :: a(40)
  do i = 1, 40
    a(i) = i
  end do
  !$acc parallel copy(a(11:30)) num_gangs(2)
  !$acc loop gang
  do i = 11, 30
    a(i) = a(i) * 3
  end do
  !$acc end parallel
  s = 0
  do i = 1, 40
    s = s + a(i)
  end do
  test_result = s
end program t
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var prog *ast.Program
			var err error
			if tc.lang == ast.LangFortran {
				prog, err = ffront.Parse(tc.src)
			} else {
				prog, err = cfront.Parse(tc.src)
			}
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			exe, _, err := compiler.Compile(prog, compiler.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tree := interp.Run(exe, interp.RunConfig{Seed: 3, Engine: interp.EngineTree})
			vm := interp.Run(exe, interp.RunConfig{Seed: 3, Engine: interp.EngineVM})
			treeErr, vmErr := errText(tree.Err), errText(vm.Err)
			if tree.Exit != vm.Exit || tree.Output != vm.Output || treeErr != vmErr {
				t.Fatalf("engines disagree:\ntree: exit=%d err=%q out=%q\nvm:   exit=%d err=%q out=%q",
					tree.Exit, treeErr, tree.Output, vm.Exit, vmErr, vm.Output)
			}
			if tc.wantErr == "" && vm.Err != nil {
				t.Fatalf("unexpected error: %v", vm.Err)
			}
			if tc.wantErr != "" && !strings.Contains(vmErr, tc.wantErr) {
				t.Fatalf("error %q does not contain %q", vmErr, tc.wantErr)
			}
		})
	}
}

// errText renders err with buffer serials masked.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return bufID.ReplaceAllString(err.Error(), "#N")
}
