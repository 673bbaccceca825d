package bytecode

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"classpack/internal/corrupt"
)

// Instruction is one decoded JVM instruction. Branch targets (A for
// branches, Default and Targets for switches) are absolute byte offsets
// within the code array.
type Instruction struct {
	Offset int // byte offset of the opcode in the code array
	Op     Op
	Wide   bool // instruction was prefixed by wide

	// A holds the primary operand: local slot (FmtLocal, FmtIinc), pushed
	// constant (FmtSByte, FmtSShort), constant-pool index (FmtCP1, FmtCP2,
	// FmtInvokeInterface, FmtMultiANewArray), primitive array type
	// (FmtNewArray) or absolute branch target (FmtBranch2, FmtBranch4).
	A int
	// B holds the secondary operand: iinc delta, invokeinterface count, or
	// multianewarray dimension count.
	B int

	// Switch payload.
	Default int   // absolute target
	Low     int32 // tableswitch bounds
	High    int32
	Keys    []int32 // lookupswitch match keys
	Targets []int   // absolute targets, one per key / table slot
}

// Size returns the encoded byte size of the instruction at its offset.
func (in *Instruction) Size() int {
	switch FormatOf(in.Op) {
	case FmtNone:
		return 1
	case FmtLocal:
		if in.Wide {
			return 4
		}
		return 2
	case FmtIinc:
		if in.Wide {
			return 6
		}
		return 3
	case FmtSByte, FmtCP1, FmtNewArray:
		return 2
	case FmtSShort, FmtCP2, FmtBranch2:
		return 3
	case FmtBranch4:
		return 5
	case FmtInvokeInterface, FmtMultiANewArray:
		switch FormatOf(in.Op) {
		case FmtInvokeInterface:
			return 5
		default:
			return 4
		}
	case FmtTableSwitch:
		pad := 3 - in.Offset%4
		return 1 + pad + 12 + 4*len(in.Targets)
	case FmtLookupSwitch:
		pad := 3 - in.Offset%4
		return 1 + pad + 8 + 8*len(in.Keys)
	default:
		return 1
	}
}

// Decode decodes a complete code array into instructions.
func Decode(code []byte) ([]Instruction, error) {
	return DecodeAppend(nil, code)
}

// DecodeAppend decodes a complete code array, appending the instructions
// to dst (which may be a truncated slice being reused) and returning the
// extended slice. On error the returned slice is nil.
func DecodeAppend(dst []Instruction, code []byte) ([]Instruction, error) {
	pos := 0
	for pos < len(code) {
		dst = append(dst, Instruction{})
		next, err := decodeOne(&dst[len(dst)-1], code, pos)
		if err != nil {
			return nil, err
		}
		pos = next
	}
	return dst, nil
}

func u2at(code []byte, pos int) (int, error) {
	if pos+2 > len(code) {
		return 0, corrupt.Errorf("bytecode", int64(pos), "truncated operand")
	}
	return int(binary.BigEndian.Uint16(code[pos:])), nil
}

func s2at(code []byte, pos int) (int, error) {
	v, err := u2at(code, pos)
	return int(int16(v)), err
}

func s4at(code []byte, pos int) (int, error) {
	if pos+4 > len(code) {
		return 0, corrupt.Errorf("bytecode", int64(pos), "truncated operand")
	}
	return int(int32(binary.BigEndian.Uint32(code[pos:]))), nil
}

// decodeOne decodes the instruction at pos into in, a zeroed slot of
// DecodeAppend's slice, and returns the offset of the next instruction.
func decodeOne(in *Instruction, code []byte, pos int) (int, error) {
	in.Offset = pos
	if pos >= len(code) {
		return 0, corrupt.Errorf("bytecode", int64(pos), "decode past end")
	}
	op := Op(code[pos])
	if op == Wide {
		if pos+1 >= len(code) {
			return 0, corrupt.Errorf("bytecode", int64(pos), "truncated wide prefix")
		}
		in.Wide = true
		in.Op = Op(code[pos+1])
		switch FormatOf(in.Op) {
		case FmtLocal:
			v, err := u2at(code, pos+2)
			if err != nil {
				return 0, err
			}
			in.A = v
			return pos + 4, nil
		case FmtIinc:
			v, err := u2at(code, pos+2)
			if err != nil {
				return 0, err
			}
			d, err := s2at(code, pos+4)
			if err != nil {
				return 0, err
			}
			in.A, in.B = v, d
			return pos + 6, nil
		default:
			return 0, corrupt.Errorf("bytecode", int64(pos), "wide prefix on %s", in.Op)
		}
	}
	in.Op = op
	switch FormatOf(op) {
	case FmtInvalid:
		return 0, corrupt.Errorf("bytecode", int64(pos), "invalid opcode 0x%02x", byte(op))
	case FmtNone:
		return pos + 1, nil
	case FmtLocal, FmtCP1, FmtNewArray:
		if pos+1 >= len(code) {
			return 0, corrupt.Errorf("bytecode", int64(pos), "truncated %s", op)
		}
		in.A = int(code[pos+1])
		return pos + 2, nil
	case FmtSByte:
		if pos+1 >= len(code) {
			return 0, corrupt.Errorf("bytecode", int64(pos), "truncated %s", op)
		}
		in.A = int(int8(code[pos+1]))
		return pos + 2, nil
	case FmtSShort:
		v, err := s2at(code, pos+1)
		if err != nil {
			return 0, err
		}
		in.A = v
		return pos + 3, nil
	case FmtCP2:
		v, err := u2at(code, pos+1)
		if err != nil {
			return 0, err
		}
		in.A = v
		return pos + 3, nil
	case FmtIinc:
		if pos+2 >= len(code) {
			return 0, corrupt.Errorf("bytecode", int64(pos), "truncated iinc")
		}
		in.A = int(code[pos+1])
		in.B = int(int8(code[pos+2]))
		return pos + 3, nil
	case FmtBranch2:
		v, err := s2at(code, pos+1)
		if err != nil {
			return 0, err
		}
		in.A = pos + v
		return pos + 3, nil
	case FmtBranch4:
		v, err := s4at(code, pos+1)
		if err != nil {
			return 0, err
		}
		in.A = pos + v
		return pos + 5, nil
	case FmtInvokeInterface:
		v, err := u2at(code, pos+1)
		if err != nil {
			return 0, err
		}
		if pos+4 >= len(code) {
			return 0, corrupt.Errorf("bytecode", int64(pos), "truncated invokeinterface")
		}
		in.A = v
		in.B = int(code[pos+3])
		if code[pos+4] != 0 {
			return 0, corrupt.Errorf("bytecode", int64(pos), "invokeinterface pad byte %d", code[pos+4])
		}
		return pos + 5, nil
	case FmtMultiANewArray:
		v, err := u2at(code, pos+1)
		if err != nil {
			return 0, err
		}
		if pos+3 >= len(code) {
			return 0, corrupt.Errorf("bytecode", int64(pos), "truncated multianewarray")
		}
		in.A = v
		in.B = int(code[pos+3])
		return pos + 4, nil
	case FmtTableSwitch:
		p := pos + 1 + (3 - pos%4)
		def, err := s4at(code, p)
		if err != nil {
			return 0, err
		}
		lo, err := s4at(code, p+4)
		if err != nil {
			return 0, err
		}
		hi, err := s4at(code, p+8)
		if err != nil {
			return 0, err
		}
		if int64(hi) < int64(lo) {
			return 0, corrupt.Errorf("bytecode", int64(pos), "tableswitch high %d < low %d", hi, lo)
		}
		n := int(int64(hi) - int64(lo) + 1)
		if n > (len(code)-p)/4 {
			return 0, corrupt.Errorf("bytecode", int64(pos), "tableswitch with %d entries overruns code", n)
		}
		in.Default = pos + def
		in.Low, in.High = int32(lo), int32(hi)
		in.Targets = make([]int, n)
		p += 12
		for i := range in.Targets {
			t, err := s4at(code, p)
			if err != nil {
				return 0, err
			}
			in.Targets[i] = pos + t
			p += 4
		}
		return p, nil
	case FmtLookupSwitch:
		p := pos + 1 + (3 - pos%4)
		def, err := s4at(code, p)
		if err != nil {
			return 0, err
		}
		n, err := s4at(code, p+4)
		if err != nil {
			return 0, err
		}
		if n < 0 || n > (len(code)-p)/8 {
			return 0, corrupt.Errorf("bytecode", int64(pos), "lookupswitch with %d pairs overruns code", n)
		}
		in.Default = pos + def
		in.Keys = make([]int32, n)
		in.Targets = make([]int, n)
		p += 8
		for i := 0; i < n; i++ {
			k, err := s4at(code, p)
			if err != nil {
				return 0, err
			}
			t, err := s4at(code, p+4)
			if err != nil {
				return 0, err
			}
			in.Keys[i] = int32(k)
			in.Targets[i] = pos + t
			p += 8
		}
		return p, nil
	default:
		return 0, corrupt.Errorf("bytecode", int64(pos), "unhandled format for %s", op)
	}
}

// CheckHandler holds one exception handler to its method's code, as
// JVMS §4.7.3 does: start_pc < end_pc <= code_length, start_pc and
// handler_pc lie on instruction boundaries, and end_pc lies on one or
// equals code_length. The method's n instructions start at the
// ascending offsets offset(0), …, offset(n-1). Verify and Pack refuse a
// handler that fails, and the decoder reports one as damage, so Unpack
// never reproduces a handler the JVM would reject.
func CheckHandler(start, end, handler, codeLen, n int, offset func(i int) int) error {
	boundary := func(pc int) bool {
		i := sort.Search(n, func(i int) bool { return offset(i) >= pc })
		return i < n && offset(i) == pc
	}
	switch {
	case start >= end || end > codeLen:
		return fmt.Errorf("range [%d, %d) is not within code of length %d", start, end, codeLen)
	case !boundary(start):
		return fmt.Errorf("start_pc %d is not on an instruction boundary", start)
	case end < codeLen && !boundary(end):
		return fmt.Errorf("end_pc %d is not on an instruction boundary", end)
	case !boundary(handler):
		return fmt.Errorf("handler_pc %d is not on an instruction boundary of code of length %d", handler, codeLen)
	}
	return nil
}

// CheckSwitchKeys holds a lookupswitch's match keys to JVMS §6.5's
// rule: they ascend, with no key repeated. Verify and Pack refuse a
// lookupswitch that breaks it, and the packed format cannot carry one.
func CheckSwitchKeys(keys []int32) error {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("lookupswitch keys not ascending")
		}
	}
	return nil
}

// Encode re-serializes instructions previously produced by Decode (their
// Offset fields must describe a contiguous layout). The output is
// byte-identical to the original array when operands are unchanged. A
// bipush/sipush operand outside its s1/s2 field, or a tableswitch whose
// High-Low+1 differs from its target count, is an error rather than a
// silently truncated instruction.
func Encode(insns []Instruction) ([]byte, error) {
	size := 0
	if n := len(insns); n > 0 {
		size = insns[n-1].Offset + insns[n-1].Size()
	}
	out := make([]byte, 0, size)
	for i := range insns {
		in := &insns[i]
		if in.Offset != len(out) {
			return nil, fmt.Errorf("bytecode: instruction %d offset %d does not match stream position %d",
				i, in.Offset, len(out))
		}
		var err error
		out, err = appendInstruction(out, in)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func appendInstruction(out []byte, in *Instruction) ([]byte, error) {
	pos := in.Offset
	switch FormatOf(in.Op) {
	case FmtNone:
		return append(out, byte(in.Op)), nil
	case FmtLocal:
		if in.Wide {
			out = append(out, byte(Wide), byte(in.Op))
			return binary.BigEndian.AppendUint16(out, uint16(in.A)), nil
		}
		if in.A > 0xff {
			return nil, fmt.Errorf("bytecode: %s local %d needs wide", in.Op, in.A)
		}
		return append(out, byte(in.Op), byte(in.A)), nil
	case FmtIinc:
		if in.Wide {
			out = append(out, byte(Wide), byte(in.Op))
			out = binary.BigEndian.AppendUint16(out, uint16(in.A))
			return binary.BigEndian.AppendUint16(out, uint16(int16(in.B))), nil
		}
		if in.A > 0xff || in.B < -128 || in.B > 127 {
			return nil, fmt.Errorf("bytecode: iinc %d %d needs wide", in.A, in.B)
		}
		return append(out, byte(in.Op), byte(in.A), byte(int8(in.B))), nil
	case FmtSByte:
		if in.A < math.MinInt8 || in.A > math.MaxInt8 {
			return nil, fmt.Errorf("bytecode: %s operand %d out of s1 range at %d", in.Op, in.A, pos)
		}
		return append(out, byte(in.Op), byte(in.A)), nil
	case FmtCP1, FmtNewArray:
		return append(out, byte(in.Op), byte(in.A)), nil
	case FmtSShort:
		if in.A < math.MinInt16 || in.A > math.MaxInt16 {
			return nil, fmt.Errorf("bytecode: %s operand %d out of s2 range at %d", in.Op, in.A, pos)
		}
		out = append(out, byte(in.Op))
		return binary.BigEndian.AppendUint16(out, uint16(in.A)), nil
	case FmtCP2:
		out = append(out, byte(in.Op))
		return binary.BigEndian.AppendUint16(out, uint16(in.A)), nil
	case FmtBranch2:
		rel := in.A - pos
		if rel < -32768 || rel > 32767 {
			return nil, fmt.Errorf("bytecode: branch offset %d out of s2 range at %d", rel, pos)
		}
		out = append(out, byte(in.Op))
		return binary.BigEndian.AppendUint16(out, uint16(int16(rel))), nil
	case FmtBranch4:
		out = append(out, byte(in.Op))
		return binary.BigEndian.AppendUint32(out, uint32(int32(in.A-pos))), nil
	case FmtInvokeInterface:
		out = append(out, byte(in.Op))
		out = binary.BigEndian.AppendUint16(out, uint16(in.A))
		return append(out, byte(in.B), 0), nil
	case FmtMultiANewArray:
		out = append(out, byte(in.Op))
		out = binary.BigEndian.AppendUint16(out, uint16(in.A))
		return append(out, byte(in.B)), nil
	case FmtTableSwitch:
		if int64(in.High)-int64(in.Low)+1 != int64(len(in.Targets)) {
			return nil, fmt.Errorf("bytecode: tableswitch %d..%d with %d targets at %d",
				in.Low, in.High, len(in.Targets), pos)
		}
		out = append(out, byte(in.Op))
		for i := 0; i < 3-pos%4; i++ {
			out = append(out, 0)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(int32(in.Default-pos)))
		out = binary.BigEndian.AppendUint32(out, uint32(in.Low))
		out = binary.BigEndian.AppendUint32(out, uint32(in.High))
		for _, t := range in.Targets {
			out = binary.BigEndian.AppendUint32(out, uint32(int32(t-pos)))
		}
		return out, nil
	case FmtLookupSwitch:
		out = append(out, byte(in.Op))
		for i := 0; i < 3-pos%4; i++ {
			out = append(out, 0)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(int32(in.Default-pos)))
		out = binary.BigEndian.AppendUint32(out, uint32(int32(len(in.Keys))))
		for i, k := range in.Keys {
			out = binary.BigEndian.AppendUint32(out, uint32(k))
			out = binary.BigEndian.AppendUint32(out, uint32(int32(in.Targets[i]-pos)))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("bytecode: cannot encode %s", in.Op)
	}
}

// Check decodes code and validates that every branch and switch target
// lands on an instruction boundary.
func Check(code []byte) error {
	insns, err := Decode(code)
	if err != nil {
		return err
	}
	starts := make(map[int]bool, len(insns))
	for i := range insns {
		starts[insns[i].Offset] = true
	}
	ck := func(t int) error {
		if !starts[t] {
			return fmt.Errorf("bytecode: branch target %d is not an instruction boundary", t)
		}
		return nil
	}
	for i := range insns {
		in := &insns[i]
		switch FormatOf(in.Op) {
		case FmtBranch2, FmtBranch4:
			if err := ck(in.A); err != nil {
				return err
			}
		case FmtTableSwitch, FmtLookupSwitch:
			if err := ck(in.Default); err != nil {
				return err
			}
			for _, t := range in.Targets {
				if err := ck(t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
