package bytecode

import (
	"slices"
	"strings"
	"testing"
)

// TestEffectTable checks the shape of every stack effect: each opcode of
// the 1.2 set has one, its letters are descriptor letters, a '*' is the
// top of the popped values or all of the pushed ones, and a shuffle's
// cut and order stay inside its window.
func TestEffectTable(t *testing.T) {
	for op := Op(0); op < NumOpcodes; op++ {
		e, ok := EffectOf(op)
		if f := FormatOf(op); ok != (f != FmtInvalid && f != FmtWidePrefix) {
			t.Errorf("%s: EffectOf ok = %v for format %d", op, ok, f)
		}
		if !ok {
			continue
		}
		if op != Nop && e == (Effect{}) {
			t.Errorf("%s has no effect", op)
		}
		if strings.Trim(e.Pop+e.Push, "IJFDL*") != "" || !strings.Contains("IJFDL\x00", string(e.Local)) {
			t.Errorf("%s: effect %+v has a letter outside IJFDL", op, e)
		}
		if i := strings.IndexByte(e.Pop, '*'); i >= 0 && i != len(e.Pop)-1 {
			t.Errorf("%s pops %q: '*' must be on top", op, e.Pop)
		}
		if strings.Contains(e.Push, "*") && e.Push != "*" {
			t.Errorf("%s pushes %q: '*' must stand alone", op, e.Push)
		}
		if sh := e.Shuffle; sh != nil {
			if e.Pop != "" || e.Push != "" || sh.Take > 4 || sh.Cut < 1 || sh.Cut > sh.Take {
				t.Errorf("%s: bad shuffle %+v", op, e)
			}
			for _, i := range sh.Order {
				if i < 0 || i >= sh.Take {
					t.Errorf("%s: order %v leaves the window of %d", op, sh.Order, sh.Take)
				}
			}
		}
	}
}

// TestShuffleSlots checks the nine shuffles against the JVMS forms.
func TestShuffleSlots(t *testing.T) {
	for _, c := range []struct {
		op       Op
		in, want []int
	}{
		{Pop, []int{1, 2, 3}, []int{1, 2}},
		{Pop2, []int{1, 2, 3}, []int{1}},
		{Dup, []int{1, 2, 3}, []int{1, 2, 3, 3}},
		{DupX1, []int{1, 2, 3}, []int{1, 3, 2, 3}},
		{DupX2, []int{1, 2, 3}, []int{3, 1, 2, 3}},
		{Dup2, []int{1, 2, 3}, []int{1, 2, 3, 2, 3}},
		{Dup2X1, []int{1, 2, 3}, []int{2, 3, 1, 2, 3}},
		{Dup2X2, []int{1, 2, 3, 4}, []int{3, 4, 1, 2, 3, 4}},
		{Swap, []int{1, 2, 3}, []int{1, 3, 2}},
	} {
		e, _ := EffectOf(c.op)
		got, ok := ShuffleSlots(slices.Clone(c.in), e.Shuffle)
		if !ok || !slices.Equal(got, c.want) {
			t.Errorf("%s of %v = %v, %v; want %v", c.op, c.in, got, ok, c.want)
		}
		short := c.in[:e.Shuffle.Take-1]
		if got, ok := ShuffleSlots(short, e.Shuffle); ok || !slices.Equal(got, short) {
			t.Errorf("%s of %v = %v, %v; want it refused", c.op, short, got, ok)
		}
	}
}
