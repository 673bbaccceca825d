// Package stackstate implements the approximate stack-state computation of
// §7.1 of the paper. The simulation tracks the kinds of values on the
// operand stack, remembering state over at most one forward branch and
// never across a backward branch, exactly as the paper prescribes — the
// decompressor re-runs the identical computation, so the collapsed opcode
// stream is invertible.
//
// Collapsing is a per-family transposition: when the state predicts member
// e of an opcode family, the family representative (the int variant) and e
// swap places in the wire alphabet. The frequent case therefore codes as
// the representative regardless of type, and the mapping is bijective even
// when the approximation disagrees with the real machine state.
//
// The same simulation supplies the "top two stack values" context used to
// split method-reference move-to-front queues (§5.1.6).
package stackstate

import (
	"classpack/internal/bytecode"
)

// Kind is the abstract type of one operand-stack slot.
type Kind uint8

// Slot kinds. Long and Double occupy two slots; the upper slot is Hi.
const (
	Unknown Kind = iota
	Int
	Float
	Ref
	Long
	Double
	Hi // second slot of a Long or Double
)

// NumContexts is the number of distinct ContextID values.
const NumContexts = 36

// Sim is the shared compressor/decompressor stack simulation for one
// method body. Create one per method with New, then for each instruction
// call Begin, WireOp (compressor) or SourceOp (decompressor), and
// StepInfo with the instruction's operand facts.
type Sim struct {
	handlers []int // exception-handler entry offsets (few per method)

	stack []Kind
	known bool // false: stack depth itself is unknown

	// One remembered forward-branch state (§7.1).
	savedTarget int
	savedStack  []Kind
	savedKnown  bool
	haveSaved   bool

	// terminated is set after an unconditional transfer; the next
	// instruction starts with unknown state unless a save or handler
	// applies.
	terminated bool
}

// New returns a simulation for a method whose exception handlers begin at
// the given code offsets. The stack starts empty (method entry).
func New(handlerOffsets []int) *Sim {
	s := &Sim{}
	s.Reset(handlerOffsets)
	return s
}

// Reset reinitializes the simulation for a new method body, reusing the
// existing allocations. Equivalent to New(handlerOffsets) except for
// the identity of the receiver.
func (s *Sim) Reset(handlerOffsets []int) {
	s.handlers = append(s.handlers[:0], handlerOffsets...)
	s.stack = s.stack[:0]
	s.known = true
	s.savedTarget = 0
	s.savedStack = s.savedStack[:0]
	s.savedKnown = false
	s.haveSaved = false
	s.terminated = false
}

// isHandler reports whether offset is an exception-handler entry. Methods
// have few handlers, so a linear scan beats a map.
func (s *Sim) isHandler(offset int) bool {
	for _, o := range s.handlers {
		if o == offset {
			return true
		}
	}
	return false
}

// Begin must be called with the instruction's offset before WireOp /
// SourceOp / ContextID for that instruction; it applies handler-entry and
// saved-branch state.
func (s *Sim) Begin(offset int) {
	if s.haveSaved && s.savedTarget < offset {
		s.haveSaved = false
	}
	switch {
	case s.isHandler(offset):
		// Handler entry: the stack holds exactly the thrown exception.
		s.stack = append(s.stack[:0], Ref)
		s.known = true
		if s.haveSaved && s.savedTarget == offset {
			s.haveSaved = false
		}
	case s.haveSaved && s.savedTarget == offset:
		if s.terminated || !s.known {
			s.stack = append(s.stack[:0], s.savedStack...)
			s.known = s.savedKnown
		} else if s.known && s.savedKnown && !kindsEqual(s.stack, s.savedStack) {
			s.known = false
		}
		s.haveSaved = false
	case s.terminated:
		s.known = false
		s.stack = s.stack[:0]
	}
	s.terminated = false
}

func kindsEqual(a, b []Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// top returns the value kind of the top stack value (collapsing the two
// slots of a wide value), or Unknown.
func (s *Sim) top() Kind { return s.valueAt(0) }

// second returns the value kind of the value below the top value.
func (s *Sim) second() Kind {
	d := 1
	if k := s.valueAt(0); k == Long || k == Double {
		d = 2
	}
	return s.valueAt(d)
}

// valueAt returns the kind of the value whose top slot is depth slots from
// the top of the stack.
func (s *Sim) valueAt(depth int) Kind {
	if !s.known || len(s.stack) <= depth {
		return Unknown
	}
	k := s.stack[len(s.stack)-1-depth]
	if k == Hi {
		if len(s.stack) <= depth+1 {
			return Unknown
		}
		return s.stack[len(s.stack)-2-depth]
	}
	return k
}

// ContextID returns a small id derived from the kinds of the top two stack
// values, used to select per-context move-to-front queues (§5.1.6).
func (s *Sim) ContextID() int {
	ctx := func(k Kind) int {
		switch k {
		case Int:
			return 1
		case Long:
			return 2
		case Float:
			return 3
		case Double:
			return 4
		case Ref:
			return 5
		default:
			return 0
		}
	}
	return ctx(s.top())*6 + ctx(s.second())
}

// WireOp returns the opcode to place in the compressed stream for the
// actual source opcode (the compressor direction of the collapse).
func (s *Sim) WireOp(op bytecode.Op) bytecode.Op { return s.transpose(op) }

// SourceOp returns the actual opcode for a wire opcode (the decompressor
// direction). SourceOp(WireOp(op)) == op for every state.
func (s *Sim) SourceOp(wire bytecode.Op) bytecode.Op { return s.transpose(wire) }

// transpose swaps the family representative with the member the current
// state predicts; all other opcodes map to themselves. Being a
// transposition, the mapping is its own inverse.
func (s *Sim) transpose(op bytecode.Op) bytecode.Op {
	f, ok := familyOf[op]
	if !ok {
		return op
	}
	e := f.predict(s)
	switch op {
	case f.rep:
		return e
	case e:
		return f.rep
	default:
		return op
	}
}

// family describes one collapsible opcode family (§7.1): members are
// distinguished by the kind of a stack value the simulation tracks.
type family struct {
	rep bytecode.Op
	// predict returns the member the current state selects, or rep when
	// the state is insufficient.
	predict func(s *Sim) bytecode.Op
}

// byTop builds a family whose member is selected by the top value kind.
func byTop(rep bytecode.Op, m map[Kind]bytecode.Op) *family {
	return &family{rep: rep, predict: func(s *Sim) bytecode.Op {
		if op, ok := m[s.top()]; ok {
			return op
		}
		return rep
	}}
}

// bySecond builds a family selected by the second value kind (shifts).
func bySecond(rep bytecode.Op, m map[Kind]bytecode.Op) *family {
	return &family{rep: rep, predict: func(s *Sim) bytecode.Op {
		if op, ok := m[s.second()]; ok {
			return op
		}
		return rep
	}}
}

var familyOf = map[bytecode.Op]*family{}

func register(f *family, members ...bytecode.Op) {
	for _, m := range members {
		familyOf[m] = f
	}
}

func init() {
	type quad struct{ i, l, f, d bytecode.Op }
	for _, q := range []quad{
		{bytecode.Iadd, bytecode.Ladd, bytecode.Fadd, bytecode.Dadd},
		{bytecode.Isub, bytecode.Lsub, bytecode.Fsub, bytecode.Dsub},
		{bytecode.Imul, bytecode.Lmul, bytecode.Fmul, bytecode.Dmul},
		{bytecode.Idiv, bytecode.Ldiv, bytecode.Fdiv, bytecode.Ddiv},
		{bytecode.Irem, bytecode.Lrem, bytecode.Frem, bytecode.Drem},
		{bytecode.Ineg, bytecode.Lneg, bytecode.Fneg, bytecode.Dneg},
	} {
		register(byTop(q.i, map[Kind]bytecode.Op{Int: q.i, Long: q.l, Float: q.f, Double: q.d}),
			q.i, q.l, q.f, q.d)
	}
	for _, p := range [][2]bytecode.Op{
		{bytecode.Iand, bytecode.Land},
		{bytecode.Ior, bytecode.Lor},
		{bytecode.Ixor, bytecode.Lxor},
	} {
		register(byTop(p[0], map[Kind]bytecode.Op{Int: p[0], Long: p[1]}), p[0], p[1])
	}
	for _, p := range [][2]bytecode.Op{
		{bytecode.Ishl, bytecode.Lshl},
		{bytecode.Ishr, bytecode.Lshr},
		{bytecode.Iushr, bytecode.Lushr},
	} {
		register(bySecond(p[0], map[Kind]bytecode.Op{Int: p[0], Long: p[1]}), p[0], p[1])
	}
	register(byTop(bytecode.Ireturn, map[Kind]bytecode.Op{
		Int: bytecode.Ireturn, Long: bytecode.Lreturn, Float: bytecode.Freturn,
		Double: bytecode.Dreturn, Ref: bytecode.Areturn,
	}), bytecode.Ireturn, bytecode.Lreturn, bytecode.Freturn, bytecode.Dreturn, bytecode.Areturn)
	register(byTop(bytecode.Istore, map[Kind]bytecode.Op{
		Int: bytecode.Istore, Long: bytecode.Lstore, Float: bytecode.Fstore,
		Double: bytecode.Dstore, Ref: bytecode.Astore,
	}), bytecode.Istore, bytecode.Lstore, bytecode.Fstore, bytecode.Dstore, bytecode.Astore)
	for slot := 0; slot < 4; slot++ {
		o := bytecode.Op(slot)
		register(byTop(bytecode.Istore0+o, map[Kind]bytecode.Op{
			Int: bytecode.Istore0 + o, Long: bytecode.Lstore0 + o, Float: bytecode.Fstore0 + o,
			Double: bytecode.Dstore0 + o, Ref: bytecode.Astore0 + o,
		}), bytecode.Istore0+o, bytecode.Lstore0+o, bytecode.Fstore0+o, bytecode.Dstore0+o, bytecode.Astore0+o)
	}
	// Conversions grouped by target type, selected by source (top) kind.
	register(byTop(bytecode.I2l, map[Kind]bytecode.Op{
		Int: bytecode.I2l, Float: bytecode.F2l, Double: bytecode.D2l,
	}), bytecode.I2l, bytecode.F2l, bytecode.D2l)
	register(byTop(bytecode.L2i, map[Kind]bytecode.Op{
		Long: bytecode.L2i, Float: bytecode.F2i, Double: bytecode.D2i,
	}), bytecode.L2i, bytecode.F2i, bytecode.D2i)
	register(byTop(bytecode.I2f, map[Kind]bytecode.Op{
		Int: bytecode.I2f, Long: bytecode.L2f, Double: bytecode.D2f,
	}), bytecode.I2f, bytecode.L2f, bytecode.D2f)
	register(byTop(bytecode.I2d, map[Kind]bytecode.Op{
		Int: bytecode.I2d, Long: bytecode.L2d, Float: bytecode.F2d,
	}), bytecode.I2d, bytecode.L2d, bytecode.F2d)
}
