package minijava

import (
	"bytes"
	"strings"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/strip"
)

const facSource = `
class Main {
    public static void main(String[] a) {
        System.out.println(new Fac().compute(10));
    }
}
class Fac {
    public int compute(int num) {
        int result;
        if (num < 1) result = 1;
        else result = num * (this.compute(num - 1));
        return result;
    }
}
`

// compileRun compiles source and runs main, returning printed output.
func compileRun(t *testing.T, src string) string {
	t.Helper()
	cfs, err := Compile(src, CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, cf := range cfs {
		if err := classfile.Verify(cf); err != nil {
			t.Fatalf("%s: %v", cf.ThisClassName(), err)
		}
		for mi := range cf.Methods {
			if code := classfile.CodeOf(&cf.Methods[mi]); code != nil {
				if err := bytecode.Check(code.Code); err != nil {
					t.Fatalf("%s.%s: %v", cf.ThisClassName(), cf.MemberName(&cf.Methods[mi]), err)
				}
			}
		}
	}
	var out bytes.Buffer
	interp := NewInterp(&out, cfs)
	if err := interp.RunMain(cfs[0].ThisClassName()); err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	return out.String()
}

func TestFactorial(t *testing.T) {
	if got := compileRun(t, facSource); got != "3628800\n" {
		t.Fatalf("output = %q, want 3628800", got)
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	src := `
class Main { public static void main(String[] a) {
    System.out.println(2 + 3 * 4);
    System.out.println((2 + 3) * 4);
    System.out.println(17 / 5);
    System.out.println(17 % 5);
    System.out.println(10 - 2 - 3);
} }
`
	want := "14\n20\n3\n2\n5\n"
	if got := compileRun(t, src); got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

func TestBooleansAndComparisons(t *testing.T) {
	src := `
class Main { public static void main(String[] a) {
    System.out.println(1 < 2);
    System.out.println(2 <= 1);
    System.out.println(3 > 2 && 2 > 1);
    System.out.println(1 > 2 || 2 > 1);
    System.out.println(!(1 == 1));
    System.out.println(1 != 2);
    System.out.println(true && false);
} }
`
	want := "true\nfalse\ntrue\ntrue\nfalse\ntrue\nfalse\n"
	if got := compileRun(t, src); got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand must not run when && short-circuits: dividing by
	// zero would abort the interpreter.
	src := `
class Main { public static void main(String[] a) {
    System.out.println(new T().safe(0));
} }
class T {
    public boolean safe(int x) {
        boolean r;
        r = 0 < x && 10 / x > 0;
        return r;
    }
}
`
	if got := compileRun(t, src); got != "false\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestWhileAndArrays(t *testing.T) {
	src := `
class Main { public static void main(String[] a) {
    System.out.println(new Summer().sum(10));
} }
class Summer {
    public int sum(int n) {
        int[] vals;
        int i;
        int total;
        vals = new int[n];
        i = 0;
        while (i < vals.length) {
            vals[i] = i * i;
            i = i + 1;
        }
        total = 0;
        i = 0;
        while (i < n) {
            total = total + vals[i];
            i = i + 1;
        }
        return total;
    }
}
`
	if got := compileRun(t, src); got != "285\n" {
		t.Fatalf("output = %q, want 285", got)
	}
}

func TestInheritanceAndVirtualDispatch(t *testing.T) {
	src := `
class Main { public static void main(String[] a) {
    Animal x;
    x = new Cat();
    System.out.println(x.speak());
    x = new Dog();
    System.out.println(x.speak());
    System.out.println(x.legs());
} }
class Animal {
    int legCount;
    public int speak() { return 0; }
    public int legs() { legCount = 4; return legCount; }
}
class Cat extends Animal {
    public int speak() { return 1; }
}
class Dog extends Animal {
    public int speak() { return 2; }
}
`
	if got := compileRun(t, src); got != "1\n2\n4\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestFieldsAcrossInheritance(t *testing.T) {
	src := `
class Main { public static void main(String[] a) {
    System.out.println(new Counter().bump(5));
} }
class Base { int total; public int read() { return total; } }
class Counter extends Base {
    public int bump(int n) {
        int i;
        i = 0;
        while (i < n) { total = total + 2; i = i + 1; }
        return this.read();
    }
}
`
	if got := compileRun(t, src); got != "10\n" {
		t.Fatalf("output = %q, want 10", got)
	}
}

func TestStringPrintln(t *testing.T) {
	src := `
class Main { public static void main(String[] a) {
    System.out.println("hello, minijava");
    System.out.println("escapes: \"quoted\" and tab\t!");
} }
`
	want := "hello, minijava\nescapes: \"quoted\" and tab\t!\n"
	if got := compileRun(t, src); got != want {
		t.Fatalf("output = %q", got)
	}
}

func TestPackageOption(t *testing.T) {
	cfs, err := Compile(facSource, CompileOptions{Package: "demo/app", SourceFile: "Fac.java"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cfs[0].ThisClassName(); got != "demo/app/Main" {
		t.Fatalf("main class = %q", got)
	}
	if got := cfs[1].ThisClassName(); got != "demo/app/Fac" {
		t.Fatalf("class = %q", got)
	}
	var out bytes.Buffer
	if err := NewInterp(&out, cfs).RunMain("demo/app/Main"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "3628800\n" {
		t.Fatalf("output = %q", out.String())
	}
}

// TestCompiledProgramSurvivesPacking is the repository's flagship
// integration test: compile → pack → unpack → run, asserting the program
// behaves identically after the compression round trip.
func TestCompiledProgramSurvivesPacking(t *testing.T) {
	cfs, err := Compile(facSource, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := new(bytes.Buffer)
	if err := NewInterp(before, cfs).RunMain("Main"); err != nil {
		t.Fatal(err)
	}
	if err := strip.ApplyAllN(cfs, strip.Options{}, 1); err != nil {
		t.Fatal(err)
	}
	packed, err := core.Pack(cfs, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	after := new(bytes.Buffer)
	if err := NewInterp(after, back).RunMain("Main"); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("behavior changed after packing: %q vs %q", before.String(), after.String())
	}
}

func TestTypeErrors(t *testing.T) {
	cases := map[string]string{
		"int cond":        `class M { public static void main(String[] a) { if (1) {} } }`,
		"bad assign":      `class M { public static void main(String[] a) { } } class C { public int f() { boolean b; b = 3; return 0; } }`,
		"unknown class":   `class M { public static void main(String[] a) { System.out.println(new Zork().f()); } }`,
		"unknown method":  `class M { public static void main(String[] a) { System.out.println(new C().g()); } } class C { public int f() { return 0; } }`,
		"undefined var":   `class M { public static void main(String[] a) { x = 1; } }`,
		"arity mismatch":  `class M { public static void main(String[] a) { System.out.println(new C().f(1)); } } class C { public int f() { return 0; } }`,
		"this in main":    `class M { public static void main(String[] a) { System.out.println(this.f()); } }`,
		"bad override":    `class M { public static void main(String[] a) { } } class A { public int f() { return 0; } } class B extends A { public boolean f() { return true; } }`,
		"cycle":           `class M { public static void main(String[] a) { } } class A extends B { } class B extends A { }`,
		"println object":  `class M { public static void main(String[] a) { System.out.println(new C()); } } class C { public int f() { return 0; } }`,
		"string compare":  `class M { public static void main(String[] a) { System.out.println("a" == "b"); } }`,
		"dup class":       `class M { public static void main(String[] a) { } } class A { } class A { }`,
		"extends unknown": `class M { public static void main(String[] a) { } } class A extends Zork { }`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Compile(src, CompileOptions{}); err == nil {
				t.Fatalf("compiled successfully")
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         ``,
		"no main":       `class M { }`,
		"missing semi":  `class M { public static void main(String[] a) { x = 1 } }`,
		"bad stmt":      `class M { public static void main(String[] a) { 1 + 2; } }`,
		"no return":     `class M { public static void main(String[] a) { } } class C { public int f() { } }`,
		"bad string":    `class M { public static void main(String[] a) { System.out.println("unterminated); } }`,
		"bad comment":   `class M { /* never closed`,
		"huge int":      `class M { public static void main(String[] a) { System.out.println(99999999999); } }`,
		"trailing junk": `class M { public static void main(String[] a) { } } @`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Compile(src, CompileOptions{}); err == nil {
				t.Fatalf("compiled successfully")
			}
		})
	}
}

func TestErrorsArePositioned(t *testing.T) {
	src := "class M {\n  public static void main(String[] a) {\n    x = 1;\n  }\n}"
	_, err := Compile(src, CompileOptions{})
	if err == nil {
		t.Fatal("compiled")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not carry line 3", err)
	}
}

func TestComments(t *testing.T) {
	src := `
// leading comment
class Main { public static void main(String[] a) {
    /* block
       comment */
    System.out.println(7); // trailing
} }
`
	if got := compileRun(t, src); got != "7\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestInterpreterRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"division by zero": `
class Main { public static void main(String[] a) {
    System.out.println(new D().div(1, 0));
} }
class D { public int div(int a, int b) { return a / b; } }
`,
		"index out of bounds": `
class Main { public static void main(String[] a) {
    int[] xs;
    xs = new int[2];
    xs[5] = 1;
} }
`,
		"negative array size": `
class Main { public static void main(String[] a) {
    int[] xs;
    xs = new int[0 - 3];
    System.out.println(xs.length);
} }
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			cfs, err := Compile(src, CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := NewInterp(&out, cfs).RunMain("Main"); err == nil {
				t.Fatalf("interpreter did not report the error (output %q)", out.String())
			}
		})
	}
}

func TestInterpreterStepBudget(t *testing.T) {
	cfs, err := Compile(`
class Main { public static void main(String[] a) {
    while (true) { }
} }
`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	interp := NewInterp(&out, cfs)
	interp.maxStep = 10000
	if err := interp.RunMain("Main"); err == nil {
		t.Fatal("infinite loop did not exhaust the step budget")
	}
}

func TestFieldDefaults(t *testing.T) {
	// Unassigned fields read as JVM defaults (0 / false / null).
	src := `
class Main { public static void main(String[] a) {
    System.out.println(new C().geti());
    System.out.println(new C().getb());
} }
class C {
    int i;
    boolean b;
    public int geti() { return i; }
    public boolean getb() { return b; }
}
`
	if got := compileRun(t, src); got != "0\nfalse\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestDeepRecursion(t *testing.T) {
	// Fibonacci both stresses frames and checks arithmetic.
	src := `
class Main { public static void main(String[] a) {
    System.out.println(new Fib().fib(20));
} }
class Fib {
    public int fib(int n) {
        int r;
        if (n < 2) r = n;
        else r = this.fib(n - 1) + this.fib(n - 2);
        return r;
    }
}
`
	if got := compileRun(t, src); got != "6765\n" {
		t.Fatalf("output = %q", got)
	}
}
