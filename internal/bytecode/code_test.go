package bytecode

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// buildSample assembles a method body exercising every operand format.
func buildSample(t *testing.T) []byte {
	t.Helper()
	a := NewAssembler()
	loop := a.NewLabel()
	end := a.NewLabel()
	c0, c1, c2, def := a.NewLabel(), a.NewLabel(), a.NewLabel(), a.NewLabel()

	a.Op(Iconst0)
	a.Local(Istore, 1)
	a.Bind(loop)
	a.Local(Iload, 1)
	a.SByte(10)
	a.Branch(IfIcmpge, end)
	a.Local(Aload, 0)
	a.CP(Getfield, 17)
	a.Local(Iload, 1)
	a.Op(Iadd)
	a.Local(Istore, 2)
	a.Local(Iload, 2)
	a.TableSwitch(0, []Label{c0, c1, c2}, def)
	a.Bind(c0)
	a.Ldc(5)
	a.Op(Pop)
	a.Branch(Goto, def)
	a.Bind(c1)
	a.Ldc(300) // forces ldc_w
	a.Op(Pop)
	a.Branch(Goto, def)
	a.Bind(c2)
	a.Local(Iload, 2)
	a.LookupSwitch([]int32{-5, 9, 1000}, []Label{def, def, def}, def)
	a.Bind(def)
	a.Iinc(1, 1)
	a.Iinc(1, 1000) // forces wide iinc
	a.Local(Iload, 300)
	a.Local(Istore, 300) // forces wide load/store
	a.SShort(20000)
	a.Op(Pop)
	a.InvokeInterface(44, 2)
	a.MultiANewArray(45, 2)
	a.Op(Pop)
	a.NewArray(10)
	a.Op(Pop)
	a.Branch(Goto, loop)
	a.Bind(end)
	a.Op(Return)

	code, err := a.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return code
}

func TestAssembleDecodeEncodeRoundTrip(t *testing.T) {
	code := buildSample(t)
	insns, err := Decode(code)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	back, err := Encode(insns)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(code, back) {
		t.Fatal("decode∘encode is not identity")
	}
	if err := Check(code); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestDecodedOperands(t *testing.T) {
	code := buildSample(t)
	insns, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	var sawWideIinc, sawLdcW, sawTable, sawLookup, sawWideLoad bool
	for i := range insns {
		in := &insns[i]
		switch {
		case in.Op == Iinc && in.Wide:
			sawWideIinc = true
			if in.B != 1000 {
				t.Errorf("wide iinc delta = %d, want 1000", in.B)
			}
		case in.Op == LdcW:
			sawLdcW = true
			if in.A != 300 {
				t.Errorf("ldc_w index = %d, want 300", in.A)
			}
		case in.Op == Tableswitch:
			sawTable = true
			if in.Low != 0 || in.High != 2 || len(in.Targets) != 3 {
				t.Errorf("tableswitch bounds %d..%d targets %d", in.Low, in.High, len(in.Targets))
			}
		case in.Op == Lookupswitch:
			sawLookup = true
			if len(in.Keys) != 3 || in.Keys[0] != -5 || in.Keys[2] != 1000 {
				t.Errorf("lookupswitch keys = %v", in.Keys)
			}
		case in.Op == Iload && in.Wide:
			sawWideLoad = true
			if in.A != 300 {
				t.Errorf("wide iload slot = %d, want 300", in.A)
			}
		}
	}
	for name, saw := range map[string]bool{
		"wide iinc": sawWideIinc, "ldc_w": sawLdcW, "tableswitch": sawTable,
		"lookupswitch": sawLookup, "wide iload": sawWideLoad,
	} {
		if !saw {
			t.Errorf("sample did not exercise %s", name)
		}
	}
}

func TestCompactLocalForms(t *testing.T) {
	a := NewAssembler()
	a.Local(Iload, 0)
	a.Local(Aload, 3)
	a.Local(Istore, 2)
	a.Local(Iload, 4)
	a.Op(Return)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(Iload0), byte(Aload3), byte(Istore2), byte(Iload), 4, byte(Return)}
	if !bytes.Equal(code, want) {
		t.Fatalf("code = % x, want % x", code, want)
	}
}

func TestSwitchPaddingAllPhases(t *testing.T) {
	// Place a tableswitch at each offset mod 4 and confirm roundtrip.
	for pre := 0; pre < 4; pre++ {
		a := NewAssembler()
		for i := 0; i < pre; i++ {
			a.Op(Nop)
		}
		l := a.NewLabel()
		a.Op(Iconst0)
		a.TableSwitch(7, []Label{l, l}, l)
		a.Bind(l)
		a.Op(Return)
		code, err := a.Assemble()
		if err != nil {
			t.Fatalf("pre=%d: %v", pre, err)
		}
		insns, err := Decode(code)
		if err != nil {
			t.Fatalf("pre=%d: %v", pre, err)
		}
		back, err := Encode(insns)
		if err != nil || !bytes.Equal(code, back) {
			t.Fatalf("pre=%d: roundtrip mismatch (%v)", pre, err)
		}
		if err := Check(code); err != nil {
			t.Fatalf("pre=%d: %v", pre, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"truncated bipush":     {byte(Bipush)},
		"truncated sipush":     {byte(Sipush), 1},
		"truncated branch":     {byte(Goto), 0},
		"invalid opcode":       {0xba, 0, 0},
		"undefined opcode":     {0xfe},
		"truncated wide":       {byte(Wide)},
		"wide on bad op":       {byte(Wide), byte(Iadd)},
		"truncated interface":  {byte(Invokeinterface), 0, 1, 2},
		"bad interface pad":    {byte(Invokeinterface), 0, 1, 2, 9},
		"truncated table":      {byte(Tableswitch), 0, 0, 0},
		"oversized lookup":     append([]byte{byte(Lookupswitch), 0, 0, 0, 0, 0, 0, 0}, 0x7f, 0xff, 0xff, 0xff),
		"reversed table range": {byte(Tableswitch), 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 9, 0, 0, 0, 1},
	}
	for name, code := range cases {
		if _, err := Decode(code); err == nil {
			t.Errorf("%s: Decode succeeded", name)
		}
	}
}

func TestCheckRejectsMisalignedTargets(t *testing.T) {
	// goto into the middle of a sipush.
	code := []byte{byte(Goto), 0, 4, byte(Sipush), 0, 9, byte(Return)}
	if err := Check(code); err == nil {
		t.Fatal("Check accepted a branch into an instruction")
	}
}

func TestUnboundLabel(t *testing.T) {
	a := NewAssembler()
	l := a.NewLabel()
	a.Branch(Goto, l)
	if _, err := a.Assemble(); err == nil {
		t.Fatal("Assemble with unbound label succeeded")
	}
}

func TestBranchOutOfRange(t *testing.T) {
	a := NewAssembler()
	end := a.NewLabel()
	a.Branch(Goto, end)
	for i := 0; i < 40000; i++ {
		a.Op(Nop)
	}
	a.Bind(end)
	a.Op(Return)
	if _, err := a.Assemble(); err == nil {
		t.Fatal("s2 branch over 40000 bytes succeeded")
	}
}

func TestDecodeRandomizedNoPanic(t *testing.T) {
	// Fuzz-ish: random bytes must never panic, only error or decode.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		code := make([]byte, rng.Intn(64))
		for i := range code {
			code[i] = byte(rng.Intn(256))
		}
		insns, err := Decode(code)
		if err != nil {
			continue
		}
		back, err := Encode(insns)
		if err != nil {
			continue
		}
		if !bytes.Equal(code, back) {
			t.Fatalf("valid decode did not re-encode identically: % x", code)
		}
	}
}

func TestEncodeRejectsOutOfRangeOperands(t *testing.T) {
	three := []int{0, 0, 0}
	cases := []struct {
		name string
		in   Instruction
		ok   bool
	}{
		{"bipush 127", Instruction{Op: Bipush, A: 127}, true},
		{"bipush -128", Instruction{Op: Bipush, A: -128}, true},
		{"bipush 128", Instruction{Op: Bipush, A: 128}, false},
		{"bipush -129", Instruction{Op: Bipush, A: -129}, false},
		{"bipush 300", Instruction{Op: Bipush, A: 300}, false},
		{"sipush 32767", Instruction{Op: Sipush, A: 32767}, true},
		{"sipush -32768", Instruction{Op: Sipush, A: -32768}, true},
		{"sipush 32768", Instruction{Op: Sipush, A: 32768}, false},
		{"sipush -32769", Instruction{Op: Sipush, A: -32769}, false},
		{"tableswitch 0..2, 3 targets", Instruction{Op: Tableswitch, Low: 0, High: 2, Targets: three}, true},
		{"tableswitch -1..1, 3 targets", Instruction{Op: Tableswitch, Low: -1, High: 1, Targets: three}, true},
		{"tableswitch 0..3, 3 targets", Instruction{Op: Tableswitch, Low: 0, High: 3, Targets: three}, false},
		{"tableswitch 0..1, 3 targets", Instruction{Op: Tableswitch, Low: 0, High: 1, Targets: three}, false},
		{"tableswitch wrapped bounds", Instruction{Op: Tableswitch, Low: math.MaxInt32, High: math.MinInt32 + 1, Targets: three}, false},
	}
	for _, c := range cases {
		_, err := Encode([]Instruction{c.in})
		if (err == nil) != c.ok {
			t.Errorf("%s: Encode err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
