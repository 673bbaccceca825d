// Package arith implements an adaptive order-0 arithmetic coder over
// bytes (Witten–Neal–Cleary style). The paper (§5) compares zlib on a
// move-to-front byte stream against an arithmetic coding of the raw MTF
// indices, where an index with probability p costs log2(1/p) bits; this
// package provides that comparator, and the streams container offers it
// as coding 2, which FORMAT.md states bit for bit.
//
// Code values are 32 bits wide. After each symbol the coder
// renormalizes in bulk: every leading bit that low and high share
// leaves in one step, and then every underflow step at once. The bits
// are exactly those of the textbook loop that moves one bit per
// iteration, which arith_test.go keeps as the reference.
package arith

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

const (
	symbols   = 256
	firstQtr  = 1 << 30
	half      = 1 << 31
	maxTotal  = 1 << 16 // rescale threshold for the adaptive model
	increment = 32
)

// model is an adaptive frequency model over the byte values: a count
// per symbol, and the same counts in a Fenwick tree for cumulative
// lookups.
type model struct {
	count [symbols]uint32
	tree  [symbols + 1]uint32 // Fenwick tree over count, 1-based
	sum   uint32
}

func (m *model) init() {
	for s := range m.count {
		m.count[s] = 1
	}
	m.build()
}

// build rebuilds the tree from count in place.
func (m *model) build() {
	m.sum = 0
	for s, c := range m.count {
		m.tree[s+1] = c
		m.sum += c
	}
	for i := 1; i <= symbols; i++ {
		if j := i + i&-i; j <= symbols {
			m.tree[j] += m.tree[i]
		}
	}
}

// cumBelow returns the total count of the symbols below s.
func (m *model) cumBelow(s int) uint32 {
	var c uint32
	for i := s; i > 0; i &= i - 1 {
		c += m.tree[i]
	}
	return c
}

// find returns the symbol whose cumulative interval holds target, which
// must be below m.sum, and the total count of the symbols below it.
func (m *model) find(target uint32) (int, uint32) {
	// tree[symbols] is the whole sum, which exceeds target, so the
	// descent starts one level below it.
	pos, acc := 0, uint32(0)
	for step := symbols / 2; step > 0; step >>= 1 {
		if t := acc + m.tree[pos+step]; t <= target {
			pos += step
			acc = t
		}
	}
	return pos, acc
}

// update counts one more s. Once the total reaches maxTotal every count
// c becomes ⌊(c+1)/2⌋, which keeps it at least 1.
func (m *model) update(s int) {
	m.count[s] += increment
	m.sum += increment
	if m.sum >= maxTotal {
		for i, c := range m.count {
			m.count[i] = (c + 1) / 2
		}
		m.build()
		return
	}
	for i := s + 1; i <= symbols; i += i & -i {
		m.tree[i] += increment
	}
}

// ones returns k one bits, right-aligned.
func ones(k int) uint32 { return uint32(1)<<k - 1 }

// narrow returns the part of [low, high] that the symbol counted by
// [lo, hi) of total takes.
func narrow(low, high, lo, hi, total uint32) (uint32, uint32) {
	width := uint64(high-low) + 1
	return low + uint32(width*uint64(lo)/uint64(total)),
		low + uint32(width*uint64(hi)/uint64(total)) - 1
}

// Encode arithmetic-codes data under a fresh model.
func Encode(data []byte) []byte {
	var m model
	m.init()
	w := bitWriter{buf: make([]byte, 0, len(data)+8)}
	low, high := uint32(0), uint32(math.MaxUint32)
	pending := 0 // underflow bits owed, each the opposite of the next bit out
	for _, b := range data {
		s := int(b)
		lo := m.cumBelow(s)
		low, high = narrow(low, high, lo, lo+m.count[s], m.sum)
		m.update(s)
		// Every leading bit that low and high share is settled. The
		// first one goes out with the pending bits behind it.
		if k := bits.LeadingZeros32(low ^ high); k > 0 {
			top := low >> 31
			w.write(top, 1)
			w.run(top^1, pending)
			pending = 0
			w.write(low>>(32-k), k-1)
			low <<= k
			high = high<<k | ones(k)
		}
		// Now low < half ≤ high. Each next bit that is 1 in low and 0
		// in high is an underflow step: it leaves the interval inside
		// the middle half, is dropped from both, and owes a pending bit.
		if k := bits.LeadingZeros32(^((low &^ high) << 1)); k > 0 {
			pending += k
			low = low << k &^ half
			high = high<<k | ones(k) | half
		}
	}
	// Two more bits select a value inside the final interval whatever
	// bits follow. The second is the opposite of the first, and so are
	// the pending bits after it.
	top := uint32(1)
	if low < firstQtr {
		top = 0
	}
	w.write(top, 1)
	w.run(top^1, pending+1)
	return w.bytes()
}

// Decode decodes n bytes from payload, which Encode made of them. Bits
// past the payload's end read as zeros, so a damaged payload decodes to
// wrong bytes rather than an error; the caller checks what it decoded.
// Decode allocates n bytes, so the caller bounds n.
func Decode(payload []byte, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("arith: negative length %d", n)
	}
	var m model
	m.init()
	r := bitReader{buf: payload}
	low, high := uint32(0), uint32(math.MaxUint32)
	value := r.read(32)
	out := make([]byte, n)
	for i := range out {
		total := m.sum
		target := ((uint64(value-low)+1)*uint64(total) - 1) / (uint64(high-low) + 1)
		if target >= uint64(total) {
			// value stays within [low, high] whatever the payload, so
			// this cannot happen; if it did, it is not a byte.
			return nil, io.ErrUnexpectedEOF
		}
		s, lo := m.find(uint32(target))
		low, high = narrow(low, high, lo, lo+m.count[s], total)
		m.update(s)
		out[i] = byte(s)
		// value lies in [low, high], so it shares their leading bits,
		// and in an underflow step its dropped bit is the one theirs is.
		if k := bits.LeadingZeros32(low ^ high); k > 0 {
			low <<= k
			high = high<<k | ones(k)
			value = value<<k | r.read(k)
		}
		if k := bits.LeadingZeros32(^((low &^ high) << 1)); k > 0 {
			low = low << k &^ half
			high = high<<k | ones(k) | half
			value = value&half | value<<k&^half | r.read(k)
		}
	}
	return out, nil
}

// bitWriter appends bits to buf, most significant first.
type bitWriter struct {
	buf []byte
	acc uint64 // its low n bits are the bits not yet in buf
	n   int    // below 32 between calls
}

// write appends the low c bits of v, 0 ≤ c ≤ 32.
func (w *bitWriter) write(v uint32, c int) {
	w.acc = w.acc<<c | uint64(v&ones(c))
	w.n += c
	if w.n >= 32 {
		w.n -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>w.n))
	}
}

// run appends count copies of bit, which is 0 or 1.
func (w *bitWriter) run(bit uint32, count int) {
	v := -bit // all zeros or all ones
	for ; count > 32; count -= 32 {
		w.write(v, 32)
	}
	w.write(v, count)
}

// bytes returns buf with the bits not yet in it, the last byte padded
// with zeros.
func (w *bitWriter) bytes() []byte {
	if w.n == 0 {
		return w.buf
	}
	last := uint32(w.acc << (32 - w.n))
	return binary.BigEndian.AppendUint32(w.buf, last)[:len(w.buf)+(w.n+7)/8]
}

// bitReader reads buf's bits, most significant first, and zeros past
// its end.
type bitReader struct {
	buf []byte
	acc uint64 // the next n bits, left-aligned
	n   int
}

// read returns the next k bits, 1 ≤ k ≤ 32.
func (r *bitReader) read(k int) uint32 {
	if r.n < k {
		for r.n <= 56 {
			var b byte
			if len(r.buf) > 0 {
				b, r.buf = r.buf[0], r.buf[1:]
			}
			r.acc |= uint64(b) << (56 - r.n)
			r.n += 8
		}
	}
	v := uint32(r.acc >> (64 - k))
	r.acc <<= k
	r.n -= k
	return v
}
