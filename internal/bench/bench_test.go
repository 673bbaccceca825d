package bench

import (
	"bytes"
	"strings"
	"testing"

	"classpack/internal/classfile"
)

// testScale keeps corpora small: the shapes under test hold at any scale.
const testScale = 0.02

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("got %d rows, want 19", len(rows))
	}
	for _, r := range rows {
		// The paper's orderings: stripping shrinks (sjar < jar), a
		// compressed jar beats the stored jar, and whole-archive gzip
		// beats per-file compression.
		if !(r.SJar < r.Jar) {
			t.Errorf("%s: sjar %d not below jar %d", r.Name, r.SJar, r.Jar)
		}
		if !(r.SJar < r.SJ0R) {
			t.Errorf("%s: sjar %d not below sj0r %d", r.Name, r.SJar, r.SJ0R)
		}
		if !(r.SJ0RGz < r.SJar) {
			t.Errorf("%s: sj0r.gz %d not below sjar %d", r.Name, r.SJ0RGz, r.SJar)
		}
	}
}

func TestTable2ComponentsSumToTotal(t *testing.T) {
	c, err := Load("Hanoi", testScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := breakdown(c.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	// Components + per-class header bytes must equal the serialized total.
	headers := 0
	for _, cf := range c.Stripped {
		// magic(4) versions(4) poolcount(2) access/this/super(6)
		// ifacecount(2)+2*n fieldcount(2) methodcount(2) attrcount(2)
		headers += 24 + 2*len(cf.Interfaces)
		for _, a := range cf.Attrs {
			headers += 6 + classfile.AttrSize(a)
		}
	}
	sum := b.fieldDefs + b.methodDefs + b.code + b.otherCP + b.utf8 + headers
	if sum != b.total {
		t.Fatalf("components sum to %d, total is %d (headers %d)", sum, b.total, headers)
	}
	// Sharing and factoring each shrink the string bytes (§3, Table 2).
	if !(b.utf8Shared < b.utf8) {
		t.Errorf("shared utf8 %d not below %d", b.utf8Shared, b.utf8)
	}
	if !(b.utf8Factored < b.utf8Shared) {
		t.Errorf("factored utf8 %d not below shared %d", b.utf8Factored, b.utf8Shared)
	}
	// Utf8 entries dominate the constant pool (§3).
	if !(b.utf8 > b.otherCP) {
		t.Errorf("utf8 %d does not dominate other CP %d", b.utf8, b.otherCP)
	}
}

func TestTable3SchemeOrdering(t *testing.T) {
	rows, err := Table3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("got %d rows", len(rows))
	}
	schemes := T3Schemes()
	idx := func(name string) int {
		for i, s := range schemes {
			if s.String() == name {
				return i
			}
		}
		t.Fatalf("no scheme %s", name)
		return -1
	}
	simple, basic, mtf := idx("Simple"), idx("Basic"), idx("MTF Basic")
	better := 0
	for _, r := range rows {
		if r.Sizes[basic] < r.Sizes[simple] {
			better++
		}
		if r.Sizes[mtf] >= r.Sizes[simple] {
			t.Errorf("%s: MTF %d not below Simple %d", r.Name, r.Sizes[mtf], r.Sizes[simple])
		}
	}
	// Basic beats Simple on at least the vast majority of corpora.
	if better < len(rows)*3/4 {
		t.Errorf("Basic beat Simple on only %d/%d corpora", better, len(rows))
	}
}

func TestTable4Shape(t *testing.T) {
	t4, err := Table4(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 7 {
		t.Fatalf("got %d rows", len(t4.Rows))
	}
	get := func(label string) []float64 {
		for _, r := range t4.Rows {
			if r.Label == label {
				return r.Pct
			}
		}
		t.Fatalf("no row %s", label)
		return nil
	}
	for col := range t4.Benchmarks {
		// Separated opcodes compress better than the raw bytestream (§7).
		if !(get("Opcodes")[col] < get("Bytestream")[col]) {
			t.Errorf("%s: opcodes %.1f%% not better than bytestream %.1f%%",
				t4.Benchmarks[col], get("Opcodes")[col], get("Bytestream")[col])
		}
		// Stack-state collapsing helps (or at least does not hurt much).
		if get("using Stack State")[col] > get("Opcodes")[col]*1.05 {
			t.Errorf("%s: stack state made opcodes worse: %.1f%% vs %.1f%%",
				t4.Benchmarks[col], get("using Stack State")[col], get("Opcodes")[col])
		}
		for _, r := range t4.Rows {
			if r.Pct[col] <= 0 || r.Pct[col] > 150 {
				t.Errorf("%s/%s: implausible percentage %.1f", t4.Benchmarks[col], r.Label, r.Pct[col])
			}
		}
	}
}

func TestTable5Shape(t *testing.T) {
	t5, err := Table5(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for col := range t5.Benchmarks {
		std := t5.Rows[0].Pct[col]
		sep := t5.Rows[1].Pct[col]
		noGz := t5.Rows[2].Pct[col]
		both := t5.Rows[3].Pct[col]
		if !(std <= sep) {
			t.Errorf("%s: standard %.0f%% above packed-separately %.0f%%",
				t5.Benchmarks[col], std, sep)
		}
		if !(std < noGz) {
			t.Errorf("%s: standard %.0f%% not below not-gzip'd %.0f%%",
				t5.Benchmarks[col], std, noGz)
		}
		if !(both >= sep && both >= noGz) {
			t.Errorf("%s: both ablations %.0f%% not the worst", t5.Benchmarks[col], both)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	rows, err := Table6(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: Packed < Jazz and Packed < j0r.gz < jar.
		if !(r.Packed < r.J0RGz) {
			t.Errorf("%s: packed %d not below j0r.gz %d", r.Name, r.Packed, r.J0RGz)
		}
		if !(r.Packed < r.Jazz) {
			t.Errorf("%s: packed %d not below jazz %d", r.Name, r.Packed, r.Jazz)
		}
		if !(r.J0RGz < r.Jar) {
			t.Errorf("%s: j0r.gz %d not below jar %d", r.Name, r.J0RGz, r.Jar)
		}
		// Category breakdown sums to ~100%.
		sum := r.Strings + r.Opcodes + r.Ints + r.Refs + r.Misc
		if sum < 99 || sum > 101 {
			t.Errorf("%s: breakdown sums to %.1f%%", r.Name, sum)
		}
		// §10: no one element dominates (none above 60%).
		for label, v := range map[string]float64{"strings": r.Strings,
			"opcodes": r.Opcodes, "refs": r.Refs} {
			if v > 60 {
				t.Errorf("%s: %s %.1f%% dominates", r.Name, label, v)
			}
		}
	}
	// Rows sorted by jar size ascending, as in the paper.
	for i := 1; i < len(rows); i++ {
		if rows[i].Jar < rows[i-1].Jar {
			t.Fatal("Table 6 not sorted by jar size")
		}
	}
}

func TestTable7Shape(t *testing.T) {
	rows, err := Table7(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CompressSecs <= 0 || r.DecompressSecs <= 0 || r.KBPerSec <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Name, r)
		}
	}
}

func TestTable8Range(t *testing.T) {
	rows, err := Table8(testScale)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if !last.Measured {
		t.Fatal("last row should be the measured range")
	}
	// The paper reports 17–41%; require our range to land in the same
	// regime (packed clearly under half of the gzip'd jar).
	if last.Lo < 5 || last.Hi > 60 {
		t.Errorf("measured range %.0f–%.0f%% outside the paper's regime", last.Lo, last.Hi)
	}
	if last.Lo > last.Hi {
		t.Errorf("inverted range %.0f–%.0f", last.Lo, last.Hi)
	}
}

func TestFigure2Series(t *testing.T) {
	rows, err := Figure2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("got %d points", len(rows))
	}
	for _, r := range rows {
		if !(r.Packed < r.J0RGz) {
			t.Errorf("%s: packed series above j0r.gz", r.Name)
		}
	}
	var buf bytes.Buffer
	RenderFigure2(&buf, rows)
	if lines := strings.Count(buf.String(), "\n"); lines != 21 {
		t.Errorf("CSV has %d lines, want 21", lines)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	t1, err := Table1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1(&buf, t1)
	t2, err := Table2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable2(&buf, t2)
	t3, err := Table3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable3(&buf, t3)
	t4, err := Table4(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable4(&buf, t4)
	t5, err := Table5(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable5(&buf, t5)
	t6, err := Table6(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable6(&buf, t6)
	t7, err := Table7(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable7(&buf, t7)
	t8, err := Table8(testScale)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable8(&buf, t8)
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4",
		"Table 5", "Table 6", "Table 7", "Table 8", "swingall", "rt"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
