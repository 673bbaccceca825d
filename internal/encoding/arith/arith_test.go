package arith

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// The reference coder: the textbook loop over an alphabet of n symbols
// that moves one bit per iteration and reads every cumulative count
// from the Fenwick tree. Encode and Decode must write and read exactly
// its bits.

type refModel struct {
	n    int
	tree []uint32 // Fenwick tree of counts, 1-based
	sum  uint32
}

func newRefModel(n int) *refModel {
	m := &refModel{n: n, tree: make([]uint32, n+1)}
	for s := 0; s < n; s++ {
		m.add(s, 1)
	}
	return m
}

func (m *refModel) add(s int, d uint32) {
	for i := s + 1; i <= m.n; i += i & -i {
		m.tree[i] += d
	}
	m.sum += d
}

// cumBelow returns the total count of symbols < s.
func (m *refModel) cumBelow(s int) uint32 {
	var c uint32
	for i := s; i > 0; i -= i & -i {
		c += m.tree[i]
	}
	return c
}

func (m *refModel) count(s int) uint32 { return m.cumBelow(s+1) - m.cumBelow(s) }

// find returns the symbol whose cumulative interval contains target.
func (m *refModel) find(target uint32) int {
	pos := 0
	step := 1
	for step<<1 <= m.n {
		step <<= 1
	}
	var acc uint32
	for ; step > 0; step >>= 1 {
		if pos+step <= m.n && acc+m.tree[pos+step] <= target {
			pos += step
			acc += m.tree[pos]
		}
	}
	return pos // count of symbols fully below target
}

func (m *refModel) update(s int) {
	m.add(s, increment)
	if m.sum >= maxTotal {
		m.rescale()
	}
}

func (m *refModel) rescale() {
	counts := make([]uint32, m.n)
	for s := 0; s < m.n; s++ {
		counts[s] = (m.count(s) + 1) / 2
		if counts[s] == 0 {
			counts[s] = 1
		}
	}
	m.tree = make([]uint32, m.n+1)
	m.sum = 0
	for s, c := range counts {
		m.add(s, c)
	}
}

const (
	refCodeBits = 32
	refTopValue = 1<<refCodeBits - 1
	refFirstQtr = refTopValue/4 + 1
	refHalf     = 2 * refFirstQtr
	refThirdQtr = 3 * refFirstQtr
)

type refEncoder struct {
	m          *refModel
	low        uint64
	high       uint64
	pending    int
	maxPending int // the most pending bits outstanding at once
	w          refBitAppender
}

type refBitAppender struct {
	buf  []byte
	cur  byte
	nCur uint
}

func (b *refBitAppender) bit(v int) {
	b.cur = b.cur<<1 | byte(v)
	b.nCur++
	if b.nCur == 8 {
		b.buf = append(b.buf, b.cur)
		b.cur, b.nCur = 0, 0
	}
}

func (b *refBitAppender) bytes() []byte {
	if b.nCur > 0 {
		return append(b.buf, b.cur<<(8-b.nCur))
	}
	return b.buf
}

func newRefEncoder(n int) *refEncoder {
	return &refEncoder{m: newRefModel(n), low: 0, high: refTopValue}
}

func (e *refEncoder) outputBit(v int) {
	e.w.bit(v)
	for ; e.pending > 0; e.pending-- {
		e.w.bit(1 - v)
	}
}

func (e *refEncoder) encode(s int) {
	total := uint64(e.m.sum)
	lo := uint64(e.m.cumBelow(s))
	hi := lo + uint64(e.m.count(s))
	width := e.high - e.low + 1
	e.high = e.low + width*hi/total - 1
	e.low = e.low + width*lo/total
	for {
		switch {
		case e.high < refHalf:
			e.outputBit(0)
		case e.low >= refHalf:
			e.outputBit(1)
			e.low -= refHalf
			e.high -= refHalf
		case e.low >= refFirstQtr && e.high < refThirdQtr:
			e.pending++
			e.maxPending = max(e.maxPending, e.pending)
			e.low -= refFirstQtr
			e.high -= refFirstQtr
		default:
			e.m.update(s)
			return
		}
		e.low <<= 1
		e.high = e.high<<1 | 1
	}
}

func (e *refEncoder) bytes() []byte {
	e.pending++
	if e.low < refFirstQtr {
		e.outputBit(0)
	} else {
		e.outputBit(1)
	}
	return e.w.bytes()
}

type refDecoder struct {
	m     *refModel
	low   uint64
	high  uint64
	value uint64
	buf   []byte
	pos   uint // bit position; reads past the end yield zero bits
}

func newRefDecoder(n int, buf []byte) *refDecoder {
	d := &refDecoder{m: newRefModel(n), high: refTopValue, buf: buf}
	for i := 0; i < refCodeBits; i++ {
		d.value = d.value<<1 | d.nextBit()
	}
	return d
}

func (d *refDecoder) nextBit() uint64 {
	if d.pos >= uint(len(d.buf))*8 {
		d.pos++
		return 0
	}
	b := d.buf[d.pos/8] >> (7 - d.pos%8) & 1
	d.pos++
	return uint64(b)
}

func (d *refDecoder) decode() (int, error) {
	total := uint64(d.m.sum)
	width := d.high - d.low + 1
	target := ((d.value-d.low+1)*total - 1) / width
	if target >= total {
		return 0, io.ErrUnexpectedEOF
	}
	s := d.m.find(uint32(target))
	lo := uint64(d.m.cumBelow(s))
	hi := lo + uint64(d.m.count(s))
	d.high = d.low + width*hi/total - 1
	d.low = d.low + width*lo/total
	for {
		switch {
		case d.high < refHalf:
			// nothing
		case d.low >= refHalf:
			d.low -= refHalf
			d.high -= refHalf
			d.value -= refHalf
		case d.low >= refFirstQtr && d.high < refThirdQtr:
			d.low -= refFirstQtr
			d.high -= refFirstQtr
			d.value -= refFirstQtr
		default:
			d.m.update(s)
			return s, nil
		}
		d.low <<= 1
		d.high = d.high<<1 | 1
		d.value = d.value<<1 | d.nextBit()
	}
}

// refEncode codes data with the reference encoder, and reports the
// most pending bits it held at once.
func refEncode(data []byte) ([]byte, int) {
	e := newRefEncoder(symbols)
	for _, b := range data {
		e.encode(int(b))
	}
	return e.bytes(), e.maxPending
}

// refDecode decodes n bytes with the reference decoder.
func refDecode(payload []byte, n int) ([]byte, error) {
	d := newRefDecoder(symbols, payload)
	out := make([]byte, n)
	for i := range out {
		s, err := d.decode()
		if err != nil {
			return nil, err
		}
		out[i] = byte(s)
	}
	return out, nil
}

// checkAgainstRef requires Encode to write the reference's bytes and
// Decode to return data from them, and returns the coded bytes.
func checkAgainstRef(t *testing.T, data []byte) []byte {
	t.Helper()
	got := Encode(data)
	want, _ := refEncode(data)
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode of %d bytes: %d bytes, differing from the reference's %d at byte %d",
			len(data), len(got), len(want), firstDiff(got, want))
	}
	back, err := Decode(got, len(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("Decode of %d bytes differs at byte %d", len(data), firstDiff(back, data))
	}
	return got
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// pendingInput builds, symbol by symbol, an input that holds more than
// 64 pending underflow bits at once: each next byte is the one after
// which the reference encoder owes the most pending bits.
func pendingInput(t *testing.T) []byte {
	t.Helper()
	var data []byte
	for len(data) < 64 {
		best, bestPending := 0, -1
		for s := 0; s < symbols; s++ {
			if _, p := refEncode(append(data, byte(s))); p > bestPending {
				best, bestPending = s, p
			}
		}
		data = append(data, byte(best))
		if bestPending > 64 {
			return data
		}
	}
	t.Fatal("no input of 64 bytes holds more than 64 pending bits")
	return nil
}

// rescales counts the model's rescales while it codes data.
func rescales(data []byte) int {
	var m model
	m.init()
	n := 0
	for _, b := range data {
		before := m.sum
		m.update(int(b))
		if m.sum < before {
			n++
		}
	}
	return n
}

func skewed(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(min(int(rng.ExpFloat64()*3), 255))
	}
	return data
}

func uniform(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	long := skewed(rng, 12000)
	if n := rescales(long); n < 5 {
		t.Fatalf("the rescale case crosses %d rescales, want at least 5", n)
	}
	pending := pendingInput(t)
	if _, p := refEncode(pending); p <= 64 {
		t.Fatalf("the pending case holds at most %d pending bits", p)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0x5a}},
		{"64 KiB of one value", bytes.Repeat([]byte{7}, 1<<16)},
		{"64 KiB of 0xff", bytes.Repeat([]byte{0xff}, 1<<16)},
		{"over 64 pending bits", pending},
		{"over 64 pending bits, then settled", append(append([]byte(nil), pending...), 0, 255, 0)},
		{"skewed", skewed(rng, 5000)},
		{"uniform", uniform(rng, 5000)},
		{"five rescales", long},
		// streams' arithTrialLimit, the longest stream it trial-codes.
		{"arithTrialLimit bytes", skewed(rng, 1<<16)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAgainstRef(t, c.data) })
	}
}

func TestRoundTripSmall(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{0},
		{255},
		{0, 1, 0, 0, 1, 1, 1, 0},
		{2, 2, 2},
		[]byte("abracadabra"),
	} {
		checkAgainstRef(t, data)
	}
	// FORMAT.md: "An empty stream is the single byte 0x40."
	if got := Encode(nil); !bytes.Equal(got, []byte{0x40}) {
		t.Fatalf("Encode(nil) = %x, want 40", got)
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		alphabet := 1 + rng.Intn(symbols)
		data := make([]byte, rng.Intn(5000))
		for i := range data {
			data[i] = byte(rng.Intn(alphabet))
		}
		t.Run(fmt.Sprintf("%d bytes of %d values", len(data), alphabet), func(t *testing.T) {
			checkAgainstRef(t, data)
		})
	}
}

func TestRoundTripSkewed(t *testing.T) {
	data := skewed(rand.New(rand.NewSource(12)), 50000)
	buf := checkAgainstRef(t, data)
	// Adaptive coding of a skewed stream must land well under 8 bits/sym
	// and near the empirical entropy.
	counts := make([]float64, symbols)
	for _, s := range data {
		counts[s]++
	}
	entropy := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / float64(len(data))
			entropy -= p * math.Log2(p)
		}
	}
	gotBits := float64(len(buf) * 8)
	idealBits := entropy * float64(len(data))
	if gotBits > idealBits*1.1+1024 {
		t.Fatalf("coded %f bits, entropy bound %f", gotBits, idealBits)
	}
}

// TestEncodeRange codes every value of the byte range, its two ends
// included (the first and the last slot of the Fenwick tree), and
// requires Decode to refuse a negative length.
func TestEncodeRange(t *testing.T) {
	data := make([]byte, 4*symbols)
	for i := range data {
		data[i] = byte(i)
	}
	checkAgainstRef(t, data)
	checkAgainstRef(t, bytes.Repeat([]byte{0, 255}, 3000))
	if _, err := Decode(nil, -1); err == nil {
		t.Fatal("Decode accepted a negative length")
	}
}

// TestModelRescale updates the model through several rescales and
// requires its counts, tree and total to match the reference model's
// after every update.
func TestModelRescale(t *testing.T) {
	var m model
	m.init()
	ref := newRefModel(symbols)
	rng := rand.New(rand.NewSource(13))
	n := 0
	for i := 0; i < maxTotal/increment*4; i++ {
		s := i % 3
		if i%5 == 0 {
			s = rng.Intn(symbols)
		}
		before := m.sum
		m.update(s)
		ref.update(s)
		if m.sum < before {
			n++
		}
		if m.sum != ref.sum {
			t.Fatalf("update %d: sum %d, reference %d", i, m.sum, ref.sum)
		}
		if i%97 != 0 && m.sum >= before {
			continue
		}
		for s := 0; s < symbols; s++ {
			if m.count[s] != ref.count(s) || m.tree[s+1] != ref.tree[s+1] {
				t.Fatalf("update %d, symbol %d: count %d and tree %d, reference %d and %d",
					i, s, m.count[s], m.tree[s+1], ref.count(s), ref.tree[s+1])
			}
		}
	}
	if n < 4 {
		t.Fatalf("%d rescales, want at least 4", n)
	}
}

// FuzzArith holds the coder to the reference: Encode writes its bytes,
// Decode inverts Encode, and Decode of any payload returns what the
// reference decoder returns.
func FuzzArith(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	coded := Encode(skewed(rng, 3000))
	flipped := append([]byte(nil), coded...)
	flipped[12] ^= 0x10
	for _, seed := range []struct {
		data []byte
		n    int
	}{
		{nil, 0},
		{[]byte{0}, 1},
		{[]byte("abracadabra"), 11},
		{bytes.Repeat([]byte{0xff}, 300), 1 << 16},
		{skewed(rng, 2000), 2000},
		{uniform(rng, 700), 1 << 16},
		// A coding, whole, cut short, damaged and overrun.
		{coded, 3000},
		{coded[:len(coded)/2], 3000},
		{flipped, 3000},
		{coded, 5000},
	} {
		f.Add(seed.data, uint32(seed.n))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		checkAgainstRef(t, data)
		k := int(n % (1<<16 + 1))
		got, err := Decode(data, k)
		want, werr := refDecode(data, k)
		if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("Decode of %d payload bytes as %d: %d bytes, %v; reference: %d bytes, %v",
				len(data), k, len(got), err, len(want), werr)
		}
	})
}
