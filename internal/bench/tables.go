package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"classpack/internal/archive"
	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/custom"
	"classpack/internal/encoding/arith"
	"classpack/internal/refs"
	"classpack/internal/synth"
)

// T1Row is one Table 1 row: corpus sizes under the baseline packagings.
type T1Row struct {
	Name                    string
	SJ0R, Jar, SJar, SJ0RGz int
	Description             string
}

// Table1 computes the Table 1 rows for every corpus.
func Table1(scale float64) ([]T1Row, error) {
	var rows []T1Row
	for _, name := range Names() {
		c, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		row := T1Row{Name: name, Description: synth.Description(name)}
		if row.SJ0R, err = c.SJ0R(); err != nil {
			return nil, err
		}
		if row.Jar, err = c.Jar(); err != nil {
			return nil, err
		}
		if row.SJar, err = c.SJar(); err != nil {
			return nil, err
		}
		if row.SJ0RGz, err = c.SJ0RGz(); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// T2 is the Table 2 classfile breakdown for selected benchmarks.
type T2 struct {
	Benchmarks []string
	Rows       []T2Row
}

// T2Row is one component with per-benchmark byte counts.
type T2Row struct {
	Label string
	Bytes []int
}

// Table2 computes the classfile breakdown (field definitions, method
// definitions, code arrays, constant pool, Utf8 — plus the shared and
// shared-and-factored Utf8 totals) for the paper's two example benchmarks.
func Table2(scale float64, benchmarks ...string) (*T2, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"swingall", "213_javac"}
	}
	t := &T2{Benchmarks: benchmarks}
	labels := []string{
		"Total classfile bytes", "Field definitions", "Method definitions",
		"Code arrays", "other constant pool", "Utf8 entries",
		"Utf8 if shared", "Utf8 if shared & factored",
	}
	cols := make([][]int, len(benchmarks))
	for i, name := range benchmarks {
		c, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		b, err := breakdown(c.Stripped)
		if err != nil {
			return nil, err
		}
		cols[i] = []int{b.total, b.fieldDefs, b.methodDefs, b.code, b.otherCP,
			b.utf8, b.utf8Shared, b.utf8Factored}
	}
	for ri, label := range labels {
		row := T2Row{Label: label}
		for _, col := range cols {
			row.Bytes = append(row.Bytes, col[ri])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

type breakdownResult struct {
	total, fieldDefs, methodDefs, code, otherCP, utf8 int
	utf8Shared, utf8Factored                          int
}

// breakdown computes the Table 2 components; the first six must sum to the
// serialized size (asserted by tests).
func breakdown(cfs []*classfile.ClassFile) (breakdownResult, error) {
	var b breakdownResult
	shared := map[string]bool{}
	factored := map[string]bool{}
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			return b, err
		}
		b.total += len(data)
		for i := 1; i < len(cf.Pool); i++ {
			c := &cf.Pool[i]
			switch c.Kind {
			case classfile.KindUtf8:
				b.utf8 += 3 + len(classfile.EncodeModifiedUTF8(c.Utf8))
				shared[c.Utf8] = true
			case classfile.KindInteger, classfile.KindFloat:
				b.otherCP += 5
			case classfile.KindLong, classfile.KindDouble:
				b.otherCP += 9
				i++
			case classfile.KindClass, classfile.KindString:
				b.otherCP += 3
			case classfile.KindNameAndType, classfile.KindFieldref,
				classfile.KindMethodref, classfile.KindInterfaceMethodref:
				b.otherCP += 5
			}
		}
		collectFactored(cf, factored)
		for fi := range cf.Fields {
			f := &cf.Fields[fi]
			b.fieldDefs += 8
			for _, a := range f.Attrs {
				b.fieldDefs += 6 + classfile.AttrSize(a)
			}
		}
		for mi := range cf.Methods {
			m := &cf.Methods[mi]
			b.methodDefs += 8
			for _, a := range m.Attrs {
				b.methodDefs += 6 + classfile.AttrSize(a)
				if code, ok := a.(*classfile.CodeAttr); ok {
					// The code array is a component of its own.
					b.methodDefs -= len(code.Code)
					b.code += len(code.Code)
				}
			}
		}
	}
	for s := range shared {
		b.utf8Shared += 3 + len(classfile.EncodeModifiedUTF8(s))
	}
	for s := range factored {
		b.utf8Factored += 2 + len(classfile.EncodeModifiedUTF8(s))
	}
	return b, nil
}

// collectFactored gathers the atomic strings left after the §4 factoring:
// package names, simple class names, member names, and string constants.
func collectFactored(cf *classfile.ClassFile, atoms map[string]bool) {
	addType := func(t classfile.Type) {
		if t.Base == 'L' {
			pkg, simple := classfile.SplitClassName(t.Name)
			atoms[pkg] = true
			atoms[simple] = true
		}
	}
	addDesc := func(desc string) {
		if strings.HasPrefix(desc, "(") {
			params, ret, err := classfile.ParseMethodDescriptor(desc)
			if err != nil {
				return
			}
			addType(ret)
			for _, p := range params {
				addType(p)
			}
			return
		}
		if t, err := classfile.ParseFieldDescriptor(desc); err == nil {
			addType(t)
		}
	}
	for i := 1; i < len(cf.Pool); i++ {
		c := &cf.Pool[i]
		switch c.Kind {
		case classfile.KindClass:
			name := cf.Utf8At(c.Name)
			if strings.HasPrefix(name, "[") {
				addDesc(name)
			} else {
				pkg, simple := classfile.SplitClassName(name)
				atoms[pkg] = true
				atoms[simple] = true
			}
		case classfile.KindString:
			atoms[cf.Utf8At(c.Str)] = true
		case classfile.KindNameAndType:
			atoms[cf.Utf8At(c.Name)] = true
			addDesc(cf.Utf8At(c.Desc))
		}
		if c.Kind.Wide() {
			i++
		}
	}
	for fi := range cf.Fields {
		atoms[cf.MemberName(&cf.Fields[fi])] = true
		addDesc(cf.MemberDesc(&cf.Fields[fi]))
	}
	for mi := range cf.Methods {
		atoms[cf.MemberName(&cf.Methods[mi])] = true
		addDesc(cf.MemberDesc(&cf.Methods[mi]))
	}
}

// T3Row is one Table 3 row: compressed reference bytes under each scheme.
type T3Row struct {
	Name  string
	Sizes []int // indexed by T3Schemes order
}

// T3Schemes lists the Table 3 columns in the paper's order.
func T3Schemes() []refs.Scheme {
	return []refs.Scheme{refs.Simple, refs.Basic, refs.Freq, refs.Cache,
		refs.MTFBasic, refs.MTFTransients, refs.MTFContext, refs.MTFFull}
}

// Table3 measures the compressed size of all reference streams under each
// §5.1 scheme for every corpus.
func Table3(scale float64) ([]T3Row, error) {
	var rows []T3Row
	for _, name := range Names() {
		c, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		traces, err := core.Traces(c.Stripped, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		row := T3Row{Name: name}
		for _, scheme := range T3Schemes() {
			row.Sizes = append(row.Sizes, measureScheme(scheme, traces))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// measureScheme encodes every pool's trace under a scheme and totals the
// DEFLATE-compressed stream sizes. Simple merges the per-kind method and
// field pools, per §5.1.1.
func measureScheme(scheme refs.Scheme, traces map[string][]refs.Event) int {
	groups := map[string][]refs.Event{}
	var poolNames []string
	for pool := range traces {
		poolNames = append(poolNames, pool)
	}
	sort.Strings(poolNames)
	for _, pool := range poolNames {
		group := pool
		if scheme == refs.Simple {
			switch {
			case strings.HasPrefix(pool, "meth."):
				group = "meth"
			case strings.HasPrefix(pool, "field."):
				group = "field"
			}
		}
		groups[group] = append(groups[group], traces[pool]...)
	}
	var groupNames []string
	for g := range groups {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)
	total := 0
	for _, g := range groupNames {
		events := groups[g]
		enc := refs.NewEncoder(scheme, refs.CountKeys(events))
		var buf []byte
		for _, ev := range events {
			buf, _ = enc.Encode(buf, ev)
		}
		if len(buf) > 0 {
			total += archive.FlateSize(buf)
		}
	}
	return total
}

// T4 holds Table 4: compression ratios (compressed/original, percent) for
// bytecode components, per benchmark.
type T4 struct {
	Benchmarks []string
	Rows       []T4Row
}

// T4Row is one component's percentages per benchmark.
type T4Row struct {
	Label string
	Pct   []float64
}

// Table4 computes bytecode-component compression for the paper's two
// example benchmarks.
func Table4(scale float64, benchmarks ...string) (*T4, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"213_javac", "222_mpegaudio"}
	}
	t := &T4{Benchmarks: benchmarks}
	labels := []string{"Bytestream", "Opcodes", "using Stack State",
		"using Custom opcodes", "Register numbers", "Branch offsets", "Method references"}
	cols := make([][]float64, len(benchmarks))
	for i, name := range benchmarks {
		c, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		col, err := bytecodeComponents(c)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	for ri, label := range labels {
		row := T4Row{Label: label}
		for _, col := range cols {
			row.Pct = append(row.Pct, col[ri])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func bytecodeComponents(c *Corpus) ([]float64, error) {
	// Raw bytestream: all code arrays concatenated.
	var allCode []byte
	var opcodeSeqs [][]byte
	for _, cf := range c.Stripped {
		for mi := range cf.Methods {
			code := classfile.CodeOf(&cf.Methods[mi])
			if code == nil {
				continue
			}
			allCode = append(allCode, code.Code...)
			insns, err := bytecode.Decode(code.Code)
			if err != nil {
				return nil, err
			}
			seq := make([]byte, len(insns))
			for i := range insns {
				seq[i] = byte(insns[i].Op)
			}
			opcodeSeqs = append(opcodeSeqs, seq)
		}
	}
	bytestream := pct(archive.FlateSize(allCode), len(allCode))

	noSS := core.Options{Scheme: refs.MTFFull, StackState: false, Compress: true}
	plainStats, err := core.PackStats(c.Stripped, noSS)
	if err != nil {
		return nil, err
	}
	ssStats, err := core.PackStats(c.Stripped, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	statPct := func(stats map[string][2]int, key string) float64 {
		s := stats[key]
		return pct(s[1], s[0])
	}
	opcodes := statPct(plainStats, "ops.code")
	withSS := statPct(ssStats, "ops.code")

	// Custom opcodes (§7.2): rewrite opcode streams, DEFLATE the result
	// (dictionary included), compare against the raw opcode count.
	rewritten, dict := custom.Compress(opcodeSeqs, 256, 128)
	var customCat []byte
	for _, seq := range rewritten {
		customCat = append(customCat, custom.Serialize(seq)...)
	}
	rawOps := 0
	for _, seq := range opcodeSeqs {
		rawOps += len(seq)
	}
	customBytes := archive.FlateSize(customCat) + 3*len(dict)
	customPct := pct(customBytes, rawOps)

	regs := statPct(ssStats, "msc.reg")
	branch := statPct(ssStats, "msc.branch")
	mrefRaw, mrefEnc := 0, 0
	for key, s := range ssStats {
		if strings.HasPrefix(key, "ref.meth.") {
			mrefRaw += s[0]
			mrefEnc += s[1]
		}
	}
	return []float64{bytestream, opcodes, withSS, customPct, regs, branch,
		pct(mrefEnc, mrefRaw)}, nil
}

// T5 holds Table 5: packing ablations as a percent of the sjar size.
type T5 struct {
	Benchmarks []string
	Rows       []T5Row
}

// T5Row is one packing option's percentages.
type T5Row struct {
	Label string
	Pct   []float64
}

// Table5 computes the separate-packing and no-gzip ablations.
func Table5(scale float64, benchmarks ...string) (*T5, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"213_javac", "222_mpegaudio"}
	}
	t := &T5{Benchmarks: benchmarks}
	labels := []string{"Standard", "Packed Separately", "Not gzip'd",
		"Packed Separately and not gzip'd"}
	cols := make([][]float64, len(benchmarks))
	for i, name := range benchmarks {
		c, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		sjar, err := c.SJar()
		if err != nil {
			return nil, err
		}
		std := core.DefaultOptions()
		noGz := std
		noGz.Compress = false
		sizes := make([]int, 4)
		if sizes[0], err = c.PackedSize(std); err != nil {
			return nil, err
		}
		if sizes[1], err = c.PackedSeparately(std); err != nil {
			return nil, err
		}
		if sizes[2], err = c.PackedSize(noGz); err != nil {
			return nil, err
		}
		if sizes[3], err = c.PackedSeparately(noGz); err != nil {
			return nil, err
		}
		col := make([]float64, 4)
		for j, s := range sizes {
			col[j] = pct(s, sjar)
		}
		cols[i] = col
	}
	for ri, label := range labels {
		row := T5Row{Label: label}
		for _, col := range cols {
			row.Pct = append(row.Pct, col[ri])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// T6Row is one Table 6 row: archive sizes, ratios, and the packed-stream
// category breakdown.
type T6Row struct {
	Name                     string
	Jar, J0RGz, Jazz, Packed int
	// Category percentages of the packed archive: Strings, Opcodes, Ints,
	// Refs, Misc.
	Strings, Opcodes, Ints, Refs, Misc float64
}

// Table6 computes the main compression-ratio table over every corpus.
func Table6(scale float64) ([]T6Row, error) {
	var rows []T6Row
	for _, name := range Names() {
		c, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		row := T6Row{Name: name}
		if row.Jar, err = c.SJar(); err != nil {
			return nil, err
		}
		if row.J0RGz, err = c.SJ0RGz(); err != nil {
			return nil, err
		}
		if row.Jazz, err = c.JazzSize(); err != nil {
			return nil, err
		}
		if row.Packed, err = c.PackedSize(core.DefaultOptions()); err != nil {
			return nil, err
		}
		stats, err := core.PackStats(c.Stripped, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		cat := map[string]int{}
		total := 0
		for key, s := range stats {
			cat[key[:3]] += s[1]
			total += s[1]
		}
		row.Strings = pct(cat["str"], total)
		row.Opcodes = pct(cat["ops"], total)
		row.Ints = pct(cat["int"], total)
		row.Refs = pct(cat["ref"], total)
		row.Misc = pct(cat["msc"], total)
		rows = append(rows, row)
	}
	// The paper orders Table 6 by jar size ascending.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Jar < rows[j].Jar })
	return rows, nil
}

// T7Row is one Table 7 row: compression and decompression wall times.
type T7Row struct {
	Name           string
	CompressSecs   float64
	DecompressSecs float64
	KBPerSec       float64 // wire-format KB decompressed per second
}

// Table7 times the compressor and decompressor on every corpus.
func Table7(scale float64) ([]T7Row, error) {
	var rows []T7Row
	for _, name := range Names() {
		c, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		packed, err := core.Pack(c.Stripped, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		compSecs := time.Since(start).Seconds()
		start = time.Now()
		if _, err := core.Unpack(packed); err != nil {
			return nil, err
		}
		decompSecs := time.Since(start).Seconds()
		kbps := 0.0
		if decompSecs > 0 {
			kbps = float64(len(packed)) / 1024 / decompSecs
		}
		rows = append(rows, T7Row{Name: name, CompressSecs: compSecs,
			DecompressSecs: decompSecs, KBPerSec: kbps})
	}
	return rows, nil
}

// T8Row is one Table 8 row: a related-work compression range as a percent
// of gzip'd classfiles.
type T8Row struct {
	System   string
	Lo, Hi   float64
	Measured bool // computed here rather than quoted from the paper
}

// Table8 reproduces the related-work comparison: quoted ranges from the
// paper plus this implementation's measured range over corpora larger
// than 10K bytes.
func Table8(scale float64) ([]T8Row, error) {
	rows := []T8Row{
		{System: "Slim Binaries [KF97]", Lo: 59, Hi: 59},
		{System: "JShrink, DashO, and Jax", Lo: 65, Hi: 83},
		{System: "jar.gz format (2.1)", Lo: 55, Hi: 85},
		{System: "Clazz format [HC98]", Lo: 52, Hi: 90},
		{System: "Jazz format [BHV98]", Lo: 40, Hi: 70},
	}
	lo, hi := 1000.0, 0.0
	t6, err := Table6(scale)
	if err != nil {
		return nil, err
	}
	for _, r := range t6 {
		if r.Jar <= 10*1024 {
			continue
		}
		p := pct(r.Packed, r.Jar)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	rows = append(rows, T8Row{System: "This paper (programs > 10K)", Lo: lo, Hi: hi, Measured: true})
	return rows, nil
}

// Fig2Row is one point series entry of Figure 2: archive formats as a
// percent of the jar size, against jar size.
type Fig2Row struct {
	Name                string
	JarKB               float64
	J0RGz, Jazz, Packed float64 // percent of jar
}

// Figure2 computes the scatter series behind Figure 2.
func Figure2(scale float64) ([]Fig2Row, error) {
	t6, err := Table6(scale)
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for _, r := range t6 {
		rows = append(rows, Fig2Row{
			Name:   r.Name,
			JarKB:  float64(r.Jar) / 1024,
			J0RGz:  pct(r.J0RGz, r.Jar),
			Jazz:   pct(r.Jazz, r.Jar),
			Packed: pct(r.Packed, r.Jar),
		})
	}
	return rows, nil
}

// ArithVsFlate reproduces the §5 experiment: the move-to-front index
// stream for virtual method references coded with DEFLATE versus an
// adaptive arithmetic coder. The paper found zlib about 2% larger than
// arithmetic coding (before dictionary costs) and kept zlib.
func ArithVsFlate(scale float64, corpus string) (flateBytes, arithBytes int, err error) {
	c, err := Load(corpus, scale)
	if err != nil {
		return 0, 0, err
	}
	traces, err := core.Traces(c.Stripped, core.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	events := traces["meth.v"]
	if len(events) == 0 {
		return 0, 0, fmt.Errorf("bench: no virtual method references in %s", corpus)
	}
	enc := refs.NewEncoder(refs.MTFBasic, nil)
	var stream []byte
	for _, ev := range events {
		stream, _ = enc.Encode(stream, ev)
	}
	flateBytes = archive.FlateSize(stream)
	return flateBytes, len(arith.Encode(stream)), nil
}

// must formats a percent for rendering.
func fmtPct(v float64) string { return fmt.Sprintf("%.0f%%", v) }
