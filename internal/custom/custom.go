// Package custom implements the custom-opcode competitor of §7.2
// [EEF+97, FP95]: a greedy search for pairs of adjacent opcodes (and
// skip-pairs, which allow one slot between the combined opcodes) whose
// replacement by a fresh opcode most reduces the Huffman-entropy estimate
// of the stream, recalculating frequencies after each introduction.
// The paper found the approach decreased opcode counts substantially but
// barely improved the gzipped size; the Table 4 bench reproduces that.
package custom

import (
	"math"
	"sort"

	"classpack/internal/corrupt"
	"classpack/internal/encoding/varint"
)

// Pair is one dictionary entry: a fresh symbol expanding to First and
// Second, with one passed-through slot between them when Skip is set.
type Pair struct {
	First, Second int
	Skip          bool
}

// entropyBits estimates the Huffman-coded size of a stream with the given
// symbol counts: a symbol with probability p costs log2(1/p) bits.
// It sums in symbol order, so the estimate, and every tie between
// candidates it decides, is the same on every run.
func entropyBits(counts map[int]int) float64 {
	syms := make([]int, 0, len(counts))
	total := 0
	for s, c := range counts {
		syms = append(syms, s)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Ints(syms)
	bits := 0.0
	for _, s := range syms {
		if c := counts[s]; c > 0 {
			bits += float64(c) * math.Log2(float64(total)/float64(c))
		}
	}
	return bits
}

type candidate struct {
	pair  Pair
	count int
}

// before orders candidates by count, highest first, and equal counts by
// pair, so that ties break the same way on every run.
func (c candidate) before(d candidate) bool {
	if c.count != d.count {
		return c.count > d.count
	}
	if c.pair.First != d.pair.First {
		return c.pair.First < d.pair.First
	}
	if c.pair.Second != d.pair.Second {
		return c.pair.Second < d.pair.Second
	}
	return !c.pair.Skip && d.pair.Skip
}

// gatherCandidates counts adjacent pairs and skip-pairs across sequences.
// Skip symbols never participate in later pairs (as member or skipped
// middle): a skip symbol must stay directly followed by its inline middle
// for expansion to be well defined.
func gatherCandidates(seqs [][]int, isSkip func(int) bool) []candidate {
	pairCount := map[Pair]int{}
	for _, seq := range seqs {
		for i := 0; i+1 < len(seq); i++ {
			a, b := seq[i], seq[i+1]
			if !isSkip(a) && !isSkip(b) {
				pairCount[Pair{First: a, Second: b}]++
			}
			if i+2 < len(seq) && !isSkip(a) && !isSkip(b) && !isSkip(seq[i+2]) {
				pairCount[Pair{First: a, Second: seq[i+2], Skip: true}]++
			}
		}
	}
	cands := make([]candidate, 0, len(pairCount))
	for p, c := range pairCount {
		if c > 1 {
			cands = append(cands, candidate{pair: p, count: c})
		}
	}
	return cands
}

// rewrite replaces non-overlapping occurrences of p (left to right) with
// symbol sym and returns the number of replacements. A skip match never
// consumes a skip symbol's inline middle slot.
func rewrite(seq []int, p Pair, sym int, isSkip func(int) bool) ([]int, int) {
	out := seq[:0:0]
	n := 0
	i := 0
	for i < len(seq) {
		switch {
		case !p.Skip && i+1 < len(seq) && seq[i] == p.First && seq[i+1] == p.Second &&
			(i == 0 || !isSkip(out[len(out)-1])):
			out = append(out, sym)
			i += 2
			n++
		case p.Skip && i+2 < len(seq) && seq[i] == p.First && seq[i+2] == p.Second &&
			!isSkip(seq[i+1]) && (i == 0 || !isSkip(out[len(out)-1])):
			out = append(out, sym, seq[i+1])
			i += 3
			n++
		default:
			out = append(out, seq[i])
			i++
		}
	}
	return out, n
}

// countSymbols tallies the current symbol frequencies.
func countSymbols(seqs [][]int) map[int]int {
	counts := map[int]int{}
	for _, seq := range seqs {
		for _, s := range seq {
			counts[s]++
		}
	}
	return counts
}

// Compress greedily introduces up to maxNew custom opcodes over the given
// byte sequences (one per method). base is the size of the original
// alphabet; new symbols are numbered from base upward. It returns the
// rewritten sequences and the dictionary, in introduction order.
func Compress(seqs [][]byte, base, maxNew int) ([][]int, []Pair) {
	work := make([][]int, len(seqs))
	for i, s := range seqs {
		work[i] = make([]int, len(s))
		for j, b := range s {
			work[i][j] = int(b)
		}
	}
	var dict []Pair
	isSkip := func(sym int) bool {
		return sym >= base && dict[sym-base].Skip
	}
	for len(dict) < maxNew {
		cands := gatherCandidates(work, isSkip)
		if len(cands) == 0 {
			break
		}
		// Evaluate the most frequent candidates exactly: simulate the
		// frequency table after replacement and compare entropy estimates.
		counts := countSymbols(work)
		before := entropyBits(counts)
		bestGain := 0.0
		var best candidate
		// Limit exact evaluation to the densest candidates.
		topK := 32
		if len(cands) < topK {
			topK = len(cands)
		}
		partialSortByCount(cands, topK)
		for _, c := range cands[:topK] {
			after := simulateEntropy(counts, c, base+len(dict))
			if gain := before - after; gain > bestGain {
				bestGain = gain
				best = c
			}
		}
		if bestGain <= 0 {
			break
		}
		sym := base + len(dict)
		dict = append(dict, best.pair)
		total := 0
		for i := range work {
			var n int
			work[i], n = rewrite(work[i], best.pair, sym, isSkip)
			total += n
		}
		if total == 0 {
			dict = dict[:len(dict)-1]
			break
		}
	}
	return work, dict
}

// simulateEntropy estimates the stream entropy after replacing cand.count
// occurrences of the pair with a new symbol. The estimate treats the
// count as achievable, which overestimates gain for self-overlapping
// pairs; the greedy loop tolerates that.
func simulateEntropy(counts map[int]int, c candidate, sym int) float64 {
	sim := make(map[int]int, len(counts)+1)
	for k, v := range counts {
		sim[k] = v
	}
	sim[c.pair.First] -= c.count
	sim[c.pair.Second] -= c.count
	if sim[c.pair.First] < 0 {
		sim[c.pair.First] = 0
	}
	if sim[c.pair.Second] < 0 {
		sim[c.pair.Second] = 0
	}
	sim[sym] = c.count
	return entropyBits(sim)
}

// partialSortByCount moves the k highest-count candidates to the front,
// in the order of candidate.before.
func partialSortByCount(cands []candidate, k int) {
	for i := 0; i < k; i++ {
		maxIdx := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].before(cands[maxIdx]) {
				maxIdx = j
			}
		}
		cands[i], cands[maxIdx] = cands[maxIdx], cands[i]
	}
}

// Expand reverses Compress given the dictionary and base alphabet size.
func Expand(seqs [][]int, dict []Pair, base int) [][]byte {
	out := make([][]byte, len(seqs))
	for i, seq := range seqs {
		out[i] = expandSeq(seq, dict, base, nil)
	}
	return out
}

func expandSeq(seq []int, dict []Pair, base int, dst []byte) []byte {
	for i := 0; i < len(seq); i++ {
		sym := seq[i]
		if sym < base {
			dst = append(dst, byte(sym))
			continue
		}
		p := dict[sym-base]
		if p.Skip {
			// NEW, x expands to First, x, Second.
			dst = expandSym(p.First, dict, base, dst)
			i++
			if i < len(seq) {
				dst = expandSym(seq[i], dict, base, dst)
			}
			dst = expandSym(p.Second, dict, base, dst)
		} else {
			dst = expandSym(p.First, dict, base, dst)
			dst = expandSym(p.Second, dict, base, dst)
		}
	}
	return dst
}

// expandSym recursively expands one symbol (custom opcodes may nest).
func expandSym(sym int, dict []Pair, base int, dst []byte) []byte {
	if sym < base {
		return append(dst, byte(sym))
	}
	p := dict[sym-base]
	// Nested skip symbols cannot occur: skip symbols never participate in
	// later pairs (enforced by gatherCandidates/rewrite).
	dst = expandSym(p.First, dict, base, dst)
	return expandSym(p.Second, dict, base, dst)
}

// Serialize turns a rewritten symbol sequence into bytes for DEFLATE
// measurement (symbols above 255 take a varint escape).
func Serialize(seq []int) []byte {
	var out []byte
	for _, s := range seq {
		if s < 255 {
			out = append(out, byte(s))
		} else {
			out = append(out, 255)
			out = varint.AppendUint(out, uint64(s-255))
		}
	}
	return out
}

// maxSymbol bounds deserialized symbol values; Compress never issues
// more than a few hundred custom opcodes, so anything near int range is
// corrupt (and would overflow the +255 un-escape below).
const maxSymbol = 1 << 20

// Deserialize reverses Serialize. Input is untrusted: escape values are
// bounded so symbols stay well inside int range.
func Deserialize(data []byte) ([]int, error) {
	var out []int
	pos := 0
	for pos < len(data) {
		b := data[pos]
		pos++
		if b < 255 {
			out = append(out, int(b))
			continue
		}
		v, n, err := varint.Uint(data[pos:])
		if err != nil {
			return nil, corrupt.Errorf("custom", int64(pos), "symbol escape: %v", err)
		}
		pos += n
		if v > maxSymbol {
			return nil, corrupt.Errorf("custom", int64(pos), "symbol %d out of range", v+255)
		}
		out = append(out, int(v)+255)
	}
	return out, nil
}

// CheckDict validates a decoded dictionary against the invariants
// Compress maintains: entry i expands only to plain symbols (< base) or
// earlier custom symbols (< base+i), and never to a skip symbol. Those
// invariants make expansion acyclic and well defined; a dictionary that
// violates them is corrupt.
func CheckDict(dict []Pair, base int) error {
	if base < 1 || base > maxSymbol {
		return corrupt.Errorf("custom", -1, "alphabet base %d out of range", base)
	}
	for i, p := range dict {
		for _, s := range [2]int{p.First, p.Second} {
			if s < 0 || s >= base+i {
				return corrupt.Errorf("custom", int64(i),
					"dictionary entry %d references symbol %d outside [0,%d)", i, s, base+i)
			}
			if s >= base && dict[s-base].Skip {
				return corrupt.Errorf("custom", int64(i),
					"dictionary entry %d references skip symbol %d", i, s)
			}
		}
	}
	return nil
}

// expander performs symbol expansion iteratively with an output budget,
// so an adversarial dictionary can neither exhaust the goroutine stack
// (deep reference chains) nor memory (each entry can double the output,
// giving 2^n growth from n entries).
type expander struct {
	dict   []Pair
	base   int
	budget int64
}

func (e *expander) sym(sym int, dst []byte) ([]byte, error) {
	stack := []int{sym}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s < e.base {
			if e.budget--; e.budget < 0 {
				return nil, corrupt.TooLarge("custom", -1, "expansion exceeds output cap")
			}
			dst = append(dst, byte(s))
			continue
		}
		p := e.dict[s-e.base]
		stack = append(stack, p.Second, p.First) // First pops (and expands) first
	}
	return dst, nil
}

// ExpandChecked is Expand for untrusted input: the dictionary must pass
// CheckDict, every sequence symbol is range-checked, and the total
// expanded output across all sequences is capped at maxBytes (an error
// wrapping corrupt.ErrTooLarge past it).
func ExpandChecked(seqs [][]int, dict []Pair, base int, maxBytes int64) ([][]byte, error) {
	if err := CheckDict(dict, base); err != nil {
		return nil, err
	}
	e := &expander{dict: dict, base: base, budget: maxBytes}
	out := make([][]byte, len(seqs))
	for i, seq := range seqs {
		var dst []byte
		for j := 0; j < len(seq); j++ {
			sym := seq[j]
			if sym < 0 || sym >= base+len(dict) {
				return nil, corrupt.Errorf("custom", int64(j), "symbol %d outside alphabet", sym)
			}
			var err error
			if sym >= base && dict[sym-base].Skip {
				p := dict[sym-base]
				if dst, err = e.sym(p.First, dst); err != nil {
					return nil, err
				}
				j++
				if j < len(seq) {
					mid := seq[j]
					if mid < 0 || mid >= base+len(dict) {
						return nil, corrupt.Errorf("custom", int64(j), "symbol %d outside alphabet", mid)
					}
					if mid >= base && dict[mid-base].Skip {
						return nil, corrupt.Errorf("custom", int64(j), "skip symbol %d in a skip middle slot", mid)
					}
					if dst, err = e.sym(mid, dst); err != nil {
						return nil, err
					}
				}
				dst, err = e.sym(p.Second, dst)
			} else {
				dst, err = e.sym(sym, dst)
			}
			if err != nil {
				return nil, err
			}
		}
		out[i] = dst
	}
	return out, nil
}
