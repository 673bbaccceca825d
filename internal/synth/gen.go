package synth

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"classpack/internal/classfile"
	"classpack/internal/strip"
)

// Profile shapes one generated corpus; the built-in profiles mirror the
// paper's Table 1 benchmarks.
type Profile struct {
	Name string
	// TargetKB is the approximate total size of the stripped, uncompressed
	// classfiles (the paper's sj0r column).
	TargetKB int
	// PackageCount bounds the number of distinct packages.
	PackageCount int
	// AvgMethods and AvgFields shape class declarations.
	AvgMethods int
	AvgFields  int
	// BodyStmts is the average number of statements per method body.
	BodyStmts int
	// Obfuscated uses one/two-letter names (DashO/JAX-processed programs).
	Obfuscated bool
	// NumericTables adds mpegaudio-style static integer table
	// initializers, inflating integer constants.
	NumericTables bool
	// StringRich biases statement selection toward string constants.
	StringRich bool
}

// genMember is a declared member of a generated class.
type genMember struct {
	name   string
	desc   string
	static bool
}

// genClass is a class available for cross-references.
type genClass struct {
	name    string
	iface   bool
	fields  []genMember
	methods []genMember
}

// world is the state threaded through corpus generation.
type world struct {
	p       Profile
	rng     *rand.Rand
	pkgs    []string
	classes []*genClass // generated so far, referenceable
	ifaces  []*genClass
	nameSeq int
}

// Generate produces the corpus for a profile at the given scale factor
// (1.0 = the paper's sizes). Returned classfiles carry debugging
// attributes (SourceFile, LineNumberTable, LocalVariableTable) the way
// compiler output does; GenerateStripped applies the §2 canonicalization.
// The size target tracks the profile's TargetKB against the *stripped*
// sizes, matching the paper's sj0r column.
func Generate(p Profile, scale float64) ([]*classfile.ClassFile, error) {
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	w := &world{p: p, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
	w.makePackages()

	target := int(float64(p.TargetKB) * 1024 * scale)
	// Floor the target so even the smallest corpus spans several classes;
	// cross-file sharing is the point of the format.
	if target < 8192 {
		target = 8192
	}
	out, total, err := w.seedClasses()
	if err != nil {
		return nil, err
	}
	for total < target {
		cf, size, err := w.genClassFile()
		if err != nil {
			return nil, fmt.Errorf("synth %s: %w", p.Name, err)
		}
		out = append(out, cf)
		total += size
	}
	return out, nil
}

// GenerateStripped generates a corpus and applies the §2 strip, yielding
// the canonical classfiles all compressed formats consume.
func GenerateStripped(p Profile, scale float64) ([]*classfile.ClassFile, error) {
	cfs, err := Generate(p, scale)
	if err != nil {
		return nil, err
	}
	if err := strip.ApplyAllN(cfs, strip.Options{}, 1); err != nil {
		return nil, err
	}
	return cfs, nil
}

// strippedSize measures the stripped serialized size of a classfile
// without mutating it.
func strippedSize(cf *classfile.ClassFile) (int, error) {
	data, err := classfile.Write(cf)
	if err != nil {
		return 0, err
	}
	cp, err := classfile.Parse(data)
	if err != nil {
		return 0, err
	}
	if err := strip.Apply(cp, strip.Options{}); err != nil {
		return 0, err
	}
	out, err := classfile.Write(cp)
	if err != nil {
		return 0, err
	}
	return len(out), nil
}

func (w *world) makePackages() {
	roots := []string{"com/app", "com/app/core", "com/app/ui", "com/app/io",
		"com/app/util", "com/app/model", "com/app/event", "com/app/text",
		"org/lib", "org/lib/base", "org/lib/net", "org/lib/tools"}
	n := w.p.PackageCount
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i < len(roots) {
			w.pkgs = append(w.pkgs, roots[i])
		} else {
			w.pkgs = append(w.pkgs, fmt.Sprintf("%s/%s",
				roots[i%len(roots)], strings.ToLower(pick(w.rng, nounWords))))
		}
	}
}

func pick[T any](rng *rand.Rand, s []T) T { return s[rng.Intn(len(s))] }

// zipfPick picks an index into [0,n) biased strongly toward recent (high)
// indices, modelling locality of reference between classes.
func zipfPick(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Square the uniform sample: recent classes are referenced most.
	f := rng.Float64()
	return n - 1 - int(f*f*float64(n))
}

func (w *world) className() string {
	if w.p.Obfuscated {
		w.nameSeq++
		return obfName(w.nameSeq)
	}
	name := pick(w.rng, typeWords)
	if w.rng.Intn(2) == 0 {
		name = pick(w.rng, adjWords) + name
	}
	w.nameSeq++
	if w.nameSeq > 50 {
		name = fmt.Sprintf("%s%d", name, w.nameSeq%100)
	}
	return name
}

func obfName(seq int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	s := string(alpha[seq%26])
	if seq >= 26 {
		s += string(alpha[(seq/26)%26])
	}
	if seq >= 26*26 {
		s = fmt.Sprintf("%s%d", s, seq/(26*26))
	}
	return s
}

func (w *world) memberName(verb bool) string {
	if w.p.Obfuscated {
		w.nameSeq++
		return obfName(w.nameSeq)
	}
	if verb {
		n := pick(w.rng, verbWords) + strings.Title(pick(w.rng, nounWords))
		return n
	}
	return pick(w.rng, nounWords)
}

// fieldType draws a field type descriptor.
func (w *world) fieldType() string {
	switch w.rng.Intn(10) {
	case 0, 1, 2:
		return "I"
	case 3:
		return "J"
	case 4:
		return "D"
	case 5:
		return "Z"
	case 6:
		return "Ljava/lang/String;"
	case 7:
		if len(w.classes) > 0 {
			return "L" + w.classes[zipfPick(w.rng, len(w.classes))].name + ";"
		}
		return "Ljava/lang/Object;"
	case 8:
		return "[I"
	default:
		return "Ljava/lang/Object;"
	}
}

// genClassFile builds one class (or occasionally an interface), strips and
// serializes it, and registers it for future cross references.
func (w *world) genClassFile() (*classfile.ClassFile, int, error) {
	if len(w.classes) > 3 && w.rng.Intn(12) == 0 {
		return w.genInterface()
	}
	pkg := w.pkgs[w.rng.Intn(len(w.pkgs))]
	name := pkg + "/" + w.className()

	super := "java/lang/Object"
	if len(w.classes) > 2 && w.rng.Intn(3) == 0 {
		cand := w.classes[zipfPick(w.rng, len(w.classes))]
		if !cand.iface {
			super = cand.name
		}
	} else if w.rng.Intn(8) == 0 {
		super = "java/awt/Component"
	}

	b := classfile.NewBuilder(name, super, classfile.AccPublic|classfile.AccSuper)
	b.AttachSourceFile(simpleOf(name) + ".java")
	gc := &genClass{name: name}

	var implemented *genClass
	if w.rng.Intn(4) == 0 {
		b.AddInterface("java/lang/Runnable")
	} else if len(w.ifaces) > 0 && w.rng.Intn(3) == 0 {
		implemented = w.ifaces[w.rng.Intn(len(w.ifaces))]
		b.AddInterface(implemented.name)
	}

	nFields := 1 + w.rng.Intn(2*w.p.AvgFields)
	for i := 0; i < nFields; i++ {
		flags := uint16(classfile.AccPrivate)
		switch w.rng.Intn(5) {
		case 0:
			flags = classfile.AccPublic
		case 1:
			flags = classfile.AccProtected
		}
		static := w.rng.Intn(4) == 0
		if static {
			flags |= classfile.AccStatic
		}
		fname := w.memberName(false)
		desc := w.fieldType()
		f := b.AddField(flags, fname, desc)
		if static && w.rng.Intn(3) == 0 {
			flags |= classfile.AccFinal
			f.AccessFlags |= classfile.AccFinal
			switch desc {
			case "I", "Z":
				b.AttachConstantValue(f, b.Int(int32(w.rng.Intn(10000)-500)))
			case "J":
				b.AttachConstantValue(f, b.Long(w.rng.Int63n(1<<45)))
			case "D":
				b.AttachConstantValue(f, b.Double(float64(w.rng.Intn(1000))/8))
			case "Ljava/lang/String;":
				b.AttachConstantValue(f, b.String(w.sentence()))
			}
		}
		gc.fields = append(gc.fields, genMember{name: fname, desc: desc, static: flags&classfile.AccStatic != 0})
	}

	// Constructor.
	w.genMethod(b, gc, "<init>", "()V", false, super)

	if implemented != nil {
		for _, m := range implemented.methods {
			w.genMethod(b, gc, m.name, m.desc, false, super)
		}
	}
	if hasIface(b.CF, "java/lang/Runnable") {
		w.genMethod(b, gc, "run", "()V", false, super)
	}

	nMethods := 1 + w.rng.Intn(2*w.p.AvgMethods)
	for i := 0; i < nMethods; i++ {
		mname := w.memberName(true)
		desc := w.methodDesc()
		static := w.rng.Intn(5) == 0
		w.genMethod(b, gc, mname, desc, static, super)
	}
	if w.p.NumericTables && w.rng.Intn(2) == 0 {
		w.genTableInit(b, gc)
	}

	cf, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	if err := classfile.Verify(cf); err != nil {
		return nil, 0, err
	}
	size, err := strippedSize(cf)
	if err != nil {
		return nil, 0, err
	}
	w.classes = append(w.classes, gc)
	return cf, size, nil
}

func hasIface(cf *classfile.ClassFile, name string) bool {
	for _, i := range cf.Interfaces {
		if cf.ClassNameAt(i) == name {
			return true
		}
	}
	return false
}

func (w *world) genInterface() (*classfile.ClassFile, int, error) {
	pkg := w.pkgs[w.rng.Intn(len(w.pkgs))]
	name := pkg + "/" + w.className()
	b := classfile.NewBuilder(name, "java/lang/Object",
		classfile.AccPublic|classfile.AccInterface|classfile.AccAbstract)
	b.AttachSourceFile(simpleOf(name) + ".java")
	gc := &genClass{name: name, iface: true}
	n := 1 + w.rng.Intn(4)
	for i := 0; i < n; i++ {
		mname := w.memberName(true)
		desc := w.methodDesc()
		b.AddMethod(classfile.AccPublic|classfile.AccAbstract, mname, desc)
		gc.methods = append(gc.methods, genMember{name: mname, desc: desc})
	}
	cf, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	size, err := strippedSize(cf)
	if err != nil {
		return nil, 0, err
	}
	w.ifaces = append(w.ifaces, gc)
	w.classes = append(w.classes, gc)
	return cf, size, nil
}

// methodDesc draws a method descriptor from a realistic shape
// distribution.
func (w *world) methodDesc() string {
	rets := []string{"V", "V", "V", "I", "I", "Z", "Ljava/lang/String;", "D", "J", "Ljava/lang/Object;"}
	ret := pick(w.rng, rets)
	n := w.rng.Intn(4)
	var sb strings.Builder
	sb.WriteByte('(')
	for i := 0; i < n; i++ {
		sb.WriteString(pick(w.rng, []string{"I", "I", "Ljava/lang/String;", "J", "D", "Z", "[I", "Ljava/lang/Object;"}))
	}
	sb.WriteByte(')')
	sb.WriteString(ret)
	return sb.String()
}

func (w *world) sentence() string {
	n := 2 + w.rng.Intn(7)
	words := make([]string, n)
	for i := range words {
		words[i] = pick(w.rng, stringSentenceWords)
	}
	return strings.Join(words, " ")
}

// simpleOf returns the simple name of a binary class name.
func simpleOf(binary string) string {
	_, simple := classfile.SplitClassName(binary)
	return simple
}
