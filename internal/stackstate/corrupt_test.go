package stackstate

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
)

// simDigest is the SHA-256 of everything the codec observes of the
// simulation in TestSimNeverPanicsOnArbitraryInstructions. It was
// generated before the simulation read its stack effects from the
// bytecode opcode table, and pins that the table reproduces them.
const simDigest = "97c7f8fc173975652d7022704415a9a7da934394668e48191b957d8b87f52554"

// TestSimNeverPanicsOnArbitraryInstructions ports the core decoder's
// corrupt-input pattern to the §7.1 stack simulator: during unpack the
// Sim is driven by instructions decoded from untrusted bytes, so any
// opcode with any operands and any operand facts — negative slots and
// dimension counts, branch targets anywhere, missing, void, wide, array
// and unknown types — must degrade to unknown state, never panic.
//
// It also pins the simulation. The codec reads the Sim only after Begin,
// through ContextID and WireOp (SourceOp is WireOp's inverse), so the
// test hashes those for every opcode value at every Begin and compares
// the digest with simDigest.
func TestSimNeverPanicsOnArbitraryInstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	types := []classfile.Type{
		{Base: 'I'}, {Base: 'Z'}, {Base: 'B'}, {Base: 'C'}, {Base: 'S'},
		{Base: 'F'}, {Base: 'J'}, {Base: 'D'}, {Base: 'V'},
		{Base: 'L', Name: "T"}, {Dims: 1, Base: 'J'}, {Dims: 2, Base: 'L', Name: "T"},
		{Dims: 1, Base: 'D'}, {Base: '?'}, {},
	}
	kinds := []Kind{Unknown, Int, Float, Ref, Long, Double}
	typ := func() classfile.Type { return types[rng.Intn(len(types))] }
	facts := func() OpInfo {
		var info OpInfo
		if rng.Intn(5) > 0 {
			info.HasField, info.Field = true, typ()
		}
		if rng.Intn(5) > 0 {
			info.HasMethod = true
			for n := rng.Intn(4); n > 0; n-- {
				info.Params = append(info.Params, typ())
			}
			info.Ret = typ()
		}
		if rng.Intn(5) > 0 {
			info.HasConst, info.Const = true, kinds[rng.Intn(len(kinds))]
		}
		return info
	}
	operand := func(off int) int {
		switch rng.Intn(5) {
		case 0:
			return rng.Intn(1 << 16) // plausible CP index / slot
		case 1:
			return -1 - rng.Intn(1<<16) // negative
		case 2:
			return 1 << 30 // far out of range
		case 3:
			return off + rng.Intn(48) - 12 // a branch target either way
		default:
			return rng.Intn(8) - 2
		}
	}
	opcode := func() bytecode.Op {
		switch r := rng.Intn(8); {
		case r < 3:
			return bytecode.Op(1 + rng.Intn(int(bytecode.Aload3))) // pushes
		case r < 7:
			return bytecode.Op(rng.Intn(bytecode.NumOpcodes))
		default:
			return bytecode.Op(rng.Intn(256))
		}
	}
	h := sha256.New()
	var seen [1 + 256]byte
	for trial := 0; trial < 5000; trial++ {
		var handlers []int
		for n := rng.Intn(3); n > 0; n-- {
			handlers = append(handlers, rng.Intn(64))
		}
		s := New(handlers)
		off := 0
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Sim panicked on arbitrary instructions: %v", r)
				}
			}()
			for i := 0; i < 24; i++ {
				s.Begin(off)
				seen[0] = byte(s.ContextID())
				for op := range 256 {
					seen[1+op] = byte(s.WireOp(bytecode.Op(op)))
				}
				h.Write(seen[:])
				in := bytecode.Instruction{
					Offset:  off,
					Op:      opcode(),
					A:       operand(off),
					B:       operand(off),
					Default: operand(off),
				}
				_ = s.SourceOp(in.Op)
				s.StepInfo(&in, facts())
				off += 1 + rng.Intn(3)
			}
		}()
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simDigest {
		t.Fatalf("simulation digest %s, want %s", got, simDigest)
	}
}
