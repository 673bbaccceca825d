package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/bytecode"
	"classpack/internal/castore"
	"classpack/internal/classfile"
	"classpack/internal/faultinject"
	"classpack/internal/minijava"
	"classpack/internal/serve/client"
	"classpack/internal/synth"
)

// testJar compiles a small program and wraps it, plus one resource
// member, into a deterministic jar. It also returns the raw class bytes
// by member name for round-trip assertions.
func testJar(t *testing.T) (jar []byte, classes map[string][]byte) {
	t.Helper()
	cfs, err := minijava.Compile(`
class Main { public static void main(String[] a) { System.out.println(new Box().get()); } }
class Box { public int get() { return 42; } }
`, minijava.CompileOptions{SourceFile: "Box.java"})
	if err != nil {
		t.Fatal(err)
	}
	classes = make(map[string][]byte)
	var members []archive.File
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		name := cf.ThisClassName() + ".class"
		classes[name] = data
		members = append(members, archive.File{Name: name, Data: data})
	}
	members = append(members, archive.File{Name: "META-INF/app.properties", Data: []byte("k=v\n")})
	jar, err = archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	return jar, classes
}

// startServer runs a Server on a loopback listener and returns a client
// for it plus the cancel that triggers graceful shutdown. Cleanup waits
// for Serve to drain.
func startServer(t *testing.T, cfg Config) (*Server, *client.Client, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, client.New("http://"+ln.Addr().String(), nil), cancel
}

func newStore(t *testing.T) *castore.Store {
	t.Helper()
	st, err := castore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPackCacheHitAndArchiveRoundTrip(t *testing.T) {
	jar, classes := testJar(t)
	_, c, _ := startServer(t, Config{Store: newStore(t)})
	ctx := context.Background()

	first, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Fatalf("first pack cache = %q, want miss", first.Cache)
	}
	if len(first.Skipped) != 1 || first.Skipped[0] != "META-INF/app.properties" {
		t.Fatalf("skipped = %v, want the one resource member", first.Skipped)
	}
	if !castore.ValidKey(first.Digest) {
		t.Fatalf("digest %q is not a valid key", first.Digest)
	}

	// Second pack of identical input: served from the cache, no re-encode.
	second, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("second pack cache = %q, want hit", second.Cache)
	}
	if second.Digest != first.Digest {
		t.Fatalf("digest changed across identical packs: %s vs %s", first.Digest, second.Digest)
	}
	if !bytes.Equal(second.Packed, first.Packed) {
		t.Fatal("cache hit returned different bytes")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["encodes_total"] != 1 || m["cache_hits"] != 1 || m["cache_misses"] != 1 {
		t.Fatalf("metrics after hit: encodes=%d hits=%d misses=%d, want 1/1/1",
			m["encodes_total"], m["cache_hits"], m["cache_misses"])
	}
	if m["requests_pack"] != 2 || m["bytes_in"] != int64(2*len(jar)) {
		t.Fatalf("metrics accounting: requests_pack=%d bytes_in=%d", m["requests_pack"], m["bytes_in"])
	}
	var bucketSum int64
	for k, v := range m {
		if strings.HasPrefix(k, "encode_ms_le_") {
			bucketSum += v
		}
	}
	if bucketSum != 1 {
		t.Fatalf("encode latency histogram holds %d observations, want 1", bucketSum)
	}

	// GET /archive/{digest} returns the exact artifact, and it unpacks
	// back to the canonicalized (stripped) classes byte for byte.
	fetched, err := c.Archive(ctx, first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, first.Packed) {
		t.Fatal("GET /archive returned different bytes than POST /pack")
	}
	files, err := classpack.Unpack(fetched)
	if err != nil {
		t.Fatalf("unpacking fetched archive: %v", err)
	}
	if len(files) != len(classes) {
		t.Fatalf("unpacked %d classes, want %d", len(files), len(classes))
	}
	for _, f := range files {
		orig, ok := classes[f.Name]
		if !ok {
			t.Fatalf("unexpected class %s", f.Name)
		}
		want, err := classpack.Strip(orig)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data, want) {
			t.Fatalf("%s: unpacked bytes differ from stripped original", f.Name)
		}
	}
}

func TestUnpackEndpoint(t *testing.T) {
	jar, classes := testJar(t)
	_, c, _ := startServer(t, Config{})
	ctx := context.Background()

	res, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := c.Unpack(ctx, res.Packed)
	if err != nil {
		t.Fatal(err)
	}
	members, err := archive.ReadJar(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != len(classes) {
		t.Fatalf("rebuilt jar has %d members, want %d", len(members), len(classes))
	}
	for _, mb := range members {
		want, err := classpack.Strip(classes[mb.Name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mb.Data, want) {
			t.Fatalf("%s: rebuilt jar member differs from stripped original", mb.Name)
		}
	}

	if _, err := c.Unpack(ctx, []byte("not an archive")); err == nil {
		t.Fatal("unpack of garbage accepted")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != "corrupt_archive" {
			t.Fatalf("unpack of garbage: %v, want corrupt_archive", err)
		}
		if apiErr.Status != http.StatusBadRequest {
			t.Fatalf("unpack of garbage: status %d, want 400", apiErr.Status)
		}
	}
}

func TestUnpackSalvageEndpoint(t *testing.T) {
	jar, classes := testJar(t)
	s, c, _ := startServer(t, Config{})
	ctx := context.Background()

	res, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}

	// A pristine archive salvages cleanly: 200, nothing lost, no damage.
	sres, err := c.UnpackSalvage(ctx, res.Packed)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Partial || sres.Lost != 0 || len(sres.Damage) != 0 || sres.Recovered != len(classes) {
		t.Fatalf("salvage of pristine archive: %+v", sres)
	}
	if _, err := archive.ReadJar(sres.Jar); err != nil {
		t.Fatalf("salvaged jar unreadable: %v", err)
	}

	// Damage near the end of the archive: 206 with a damage report and
	// the recovered/lost accounting intact.
	flip := faultinject.BitFlip{Off: len(res.Packed) - 10, Bit: 2}
	sres, err = c.UnpackSalvage(ctx, flip.Apply(res.Packed))
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Partial || len(sres.Damage) == 0 {
		t.Fatalf("salvage of damaged archive not partial: %+v", sres)
	}
	if sres.Recovered+sres.Lost != sres.Total {
		t.Fatalf("salvage accounting: %d + %d != %d", sres.Recovered, sres.Lost, sres.Total)
	}
	if _, err := archive.ReadJar(sres.Jar); err != nil {
		t.Fatalf("salvaged jar unreadable: %v", err)
	}
	if got := s.Metrics().Salvages.Value(); got != 2 {
		t.Fatalf("salvages_total = %d, want 2", got)
	}

	// Garbage is rejected outright — there is nothing to salvage.
	_, err = c.UnpackSalvage(ctx, []byte("not an archive"))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "not_archive" {
		t.Fatalf("salvage of garbage: %v, want not_archive", err)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	jar, classes := testJar(t)
	_, c, _ := startServer(t, Config{})
	ctx := context.Background()

	res, err := c.Verify(ctx, jar, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != len(classes) || res.Skipped != 1 || len(res.Invalid) != 0 {
		t.Fatalf("verify of valid jar: %+v", res)
	}

	// A jar with one garbage class member reports exactly that member.
	bad, err := archive.WriteJar([]archive.File{
		{Name: "Main.class", Data: classes["Main.class"]},
		{Name: "Bad.class", Data: []byte{1, 2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = c.Verify(ctx, bad, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invalid) != 1 || res.Invalid[0].Name != "Bad.class" {
		t.Fatalf("verify of bad jar: %+v", res)
	}

	if _, err := c.Verify(ctx, []byte("not a zip"), false); err == nil {
		t.Fatal("verify of non-jar accepted")
	}
}

// buildClass returns the bytes of class p/V as fill builds it.
func buildClass(t *testing.T, fill func(b *classfile.Builder)) []byte {
	t.Helper()
	b := classfile.NewBuilder("p/V", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	fill(b)
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// handlerInsideInstruction returns a class whose method guards nop,
// bipush 5, pop, return with a handler that starts at pc 2, inside the
// bipush. JVMS §4.7.3 forbids that, and POST /pack refuses it.
func handlerInsideInstruction(t *testing.T) []byte {
	t.Helper()
	return buildClass(t, func(b *classfile.Builder) {
		m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V")
		code := []byte{byte(bytecode.Nop), byte(bytecode.Bipush), 5, byte(bytecode.Pop), byte(bytecode.Return), byte(bytecode.Athrow)}
		b.AttachCode(m, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 1, Code: code,
			Handlers: []classfile.ExceptionHandler{{StartPC: 2, EndPC: 4, HandlerPC: 5}}})
	})
}

// refusedClasses returns, by the rule each breaks, classes that POST
// /pack refuses beyond a bad operand.
func refusedClasses(t *testing.T) map[string][]byte {
	// At version 52, an attribute the JVM reads, on the class or in Code.
	modern := func(name string, inCode bool) []byte {
		return buildClass(t, func(b *classfile.Builder) {
			b.CF.MajorVersion, b.CF.MinorVersion = 52, 0
			attr := &classfile.UnknownAttr{Name: name, Data: []byte{0, 0}}
			attr.NameIndex = b.Utf8(name)
			code := &classfile.CodeAttr{MaxStack: 1, Code: []byte{byte(bytecode.Return)}}
			if inCode {
				code.Attrs = append(code.Attrs, attr)
			} else {
				b.CF.Attrs = append(b.CF.Attrs, attr)
			}
			b.AttachCode(b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V"), code)
		})
	}
	return map[string][]byte{
		"handler inside an instruction": handlerInsideInstruction(t),
		"lookupswitch keys descending": buildClass(t, func(b *classfile.Builder) {
			// iconst_0; lookupswitch, padded to pc 4, default and the
			// pairs 5 and 0 all to pc 28; return.
			code := []byte{byte(bytecode.Iconst0), byte(bytecode.Lookupswitch), 0, 0, 0, 0, 0, 27, 0, 0, 0, 2,
				0, 0, 0, 5, 0, 0, 0, 27, 0, 0, 0, 0, 0, 0, 0, 27, byte(bytecode.Return)}
			b.AttachCode(b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V"),
				&classfile.CodeAttr{MaxStack: 1, Code: code})
		}),
		"String ConstantValue on an int": buildClass(t, func(b *classfile.Builder) {
			b.AttachConstantValue(b.AddField(classfile.AccStatic|classfile.AccFinal, "f", "I"), b.String("s"))
		}),
		"Signature at version 52":             modern("Signature", false),
		"StackMapTable in Code at version 52": modern("StackMapTable", true),
	}
}

// TestVerifyRefusesWhatPackRefuses: every verify mode answers 422 for a
// class that POST /pack refuses, ?deep=1 included, whose dataflow pass
// alone never checked handler boundaries, switch keys, constant kinds
// or attributes.
func TestVerifyRefusesWhatPackRefuses(t *testing.T) {
	s := New(Config{})
	for rule, class := range refusedClasses(t) {
		jar, err := archive.WriteJar([]archive.File{{Name: "p/V.class", Data: class}})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/verify", "/verify?deep=1", "/verify?bytecode=1", "/pack"} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(jar)))
			if rec.Code != http.StatusUnprocessableEntity {
				t.Errorf("%s: POST %s = %d, want 422: %s", rule, path, rec.Code, rec.Body)
			}
		}
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	jar, _ := testJar(t)
	_, c, _ := startServer(t, Config{MaxRequestBytes: 64})
	_, err := c.Pack(context.Background(), jar)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "too_large" || apiErr.Status != 413 {
		t.Fatalf("oversized pack: %v, want too_large/413", err)
	}
}

func TestJobQueueTimeout(t *testing.T) {
	jar, _ := testJar(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	first := true
	cfg := Config{
		MaxJobs:        1,
		RequestTimeout: 300 * time.Millisecond,
		packStarted: func() {
			if first {
				first = false
				close(started)
				<-gate
			}
		},
	}
	_, c, _ := startServer(t, cfg)
	ctx := context.Background()

	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Pack(ctx, jar)
		firstDone <- err
	}()
	<-started

	// The only job slot is held; this request's deadline expires while
	// queued and must come back as a structured timeout.
	_, err := c.Pack(ctx, jar)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "timeout" || apiErr.Status != 503 {
		t.Fatalf("queued pack: %v, want timeout/503", err)
	}

	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatalf("slot-holding pack failed: %v", err)
	}
}

func TestSigtermDrainsInFlightPack(t *testing.T) {
	jar, _ := testJar(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	once := false
	cfg := Config{
		DrainTimeout: 30 * time.Second,
		packStarted: func() {
			if !once {
				once = true
				close(started)
				<-gate
			}
		},
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	c := client.New("http://"+ln.Addr().String(), nil)

	packDone := make(chan error, 1)
	var packRes *client.PackResult
	go func() {
		res, err := c.Pack(context.Background(), jar)
		packRes = res
		packDone <- err
	}()
	<-started

	// SIGTERM arrives while the pack is mid-encode.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The listener must close promptly: new connections get refused
	// while the in-flight request is still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after SIGTERM")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Release the encoder: the drained request must complete successfully.
	close(gate)
	if err := <-packDone; err != nil {
		t.Fatalf("in-flight pack failed during shutdown: %v", err)
	}
	if len(packRes.Packed) == 0 {
		t.Fatal("in-flight pack returned no bytes")
	}
	if _, err := classpack.Unpack(packRes.Packed); err != nil {
		t.Fatalf("archive delivered during shutdown does not unpack: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	stop()
}

func TestArchiveErrors(t *testing.T) {
	_, c, _ := startServer(t, Config{Store: newStore(t)})
	ctx := context.Background()

	_, err := c.Archive(ctx, strings.Repeat("ab", 32))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "not_found" || apiErr.Status != 404 {
		t.Fatalf("absent digest: %v, want not_found/404", err)
	}
	_, err = c.Archive(ctx, "NOT-HEX")
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_digest" || apiErr.Status != 400 {
		t.Fatalf("malformed digest: %v, want bad_digest/400", err)
	}

	// Without a store, pack still works (just never cached) and archive
	// fetches are 404.
	_, c2, _ := startServer(t, Config{})
	jar, _ := testJar(t)
	res, err := c2.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Archive(ctx, res.Digest); err == nil {
		t.Fatal("archive fetch without a store succeeded")
	}
}

func TestPackOfGarbageJar(t *testing.T) {
	_, c, _ := startServer(t, Config{})
	_, err := c.Pack(context.Background(), []byte("definitely not a zip"))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "encode_failed" || apiErr.Status != 422 {
		t.Fatalf("pack of garbage: %v, want encode_failed/422", err)
	}
}

// TestPackRefusesOperandPastPool posts a jar of two classes, one with a
// bytecode operand past its constant pool, to a daemon packing on two
// workers. The pack is refused as 422 encode_failed, and the daemon goes
// on serving: the next pack succeeds.
func TestPackRefusesOperandPastPool(t *testing.T) {
	jar, classes := testJar(t)
	var members []archive.File
	for _, name := range []string{"Box.class", "Main.class"} {
		data := classes[name]
		if name == "Main.class" {
			data = operandPastPool(t, data)
		}
		members = append(members, archive.File{Name: name, Data: data})
	}
	bad, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	opts := classpack.DefaultOptions()
	opts.Concurrency = 2
	_, c, _ := startServer(t, Config{Options: opts})
	ctx := context.Background()
	_, err = c.Pack(ctx, bad)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "encode_failed" || apiErr.Status != 422 {
		t.Fatalf("pack of a class with an operand past its pool: %v, want encode_failed/422", err)
	}
	if _, err := c.Pack(ctx, jar); err != nil {
		t.Fatalf("pack after the refusal: %v", err)
	}
}

// operandPastPool returns the class with its first two-byte pool operand
// pointing past the end of the constant pool.
func operandPastPool(t *testing.T, data []byte) []byte {
	t.Helper()
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range cf.Methods {
		code := classfile.CodeOf(&cf.Methods[mi])
		if code == nil {
			continue
		}
		insns, err := bytecode.Decode(code.Code)
		if err != nil {
			t.Fatal(err)
		}
		for k := range insns {
			if bytecode.FormatOf(insns[k].Op) != bytecode.FmtCP2 {
				continue
			}
			insns[k].A = len(cf.Pool) + 7
			if code.Code, err = bytecode.Encode(insns); err != nil {
				t.Fatal(err)
			}
			out, err := classfile.Write(cf)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	t.Fatal("no two-byte pool operand to break")
	return nil
}

// TestUnpackMalformedArchives uploads truncated and bit-flipped archives
// to a live daemon: every decode failure must come back as a structured
// 400 (never a 5xx or a dropped connection), cap violations as
// archive_limits, and the daemon must keep serving afterwards.
func TestUnpackMalformedArchives(t *testing.T) {
	jar, _ := testJar(t)
	_, c, _ := startServer(t, Config{})
	ctx := context.Background()

	res, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	packed := res.Packed

	checkRejected := func(desc string, data []byte) {
		t.Helper()
		_, err := c.Unpack(ctx, data)
		if err == nil {
			return // a mutation may leave the archive decodable; that's fine
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: transport-level failure instead of an API error: %v", desc, err)
		}
		if apiErr.Status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", desc, apiErr.Status, apiErr.Code)
		}
		switch apiErr.Code {
		case "corrupt_archive", "archive_limits", "decode_failed":
		default:
			t.Fatalf("%s: unexpected error code %q", desc, apiErr.Code)
		}
	}

	// Truncations across the archive, including the empty body.
	for cut := 0; cut < len(packed); cut += len(packed)/40 + 1 {
		desc := fmt.Sprintf("truncated to %d bytes", cut)
		if _, err := c.Unpack(ctx, packed[:cut]); err == nil {
			t.Fatalf("%s: accepted", desc)
		}
		checkRejected(desc, packed[:cut])
	}
	// Single-byte flips.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		mut := append([]byte(nil), packed...)
		i := rng.Intn(len(mut))
		mut[i] ^= byte(1 + rng.Intn(255))
		checkRejected(fmt.Sprintf("bit flip at %d", i), mut)
	}

	// The daemon survived all of it: a pristine unpack still works.
	if _, err := c.Unpack(ctx, packed); err != nil {
		t.Fatalf("daemon unhealthy after malformed uploads: %v", err)
	}
}

func TestVerifyBytecodeEndpoint(t *testing.T) {
	jar, classes := testJar(t)
	_, c, _ := startServer(t, Config{})
	ctx := context.Background()

	res, err := c.VerifyBytecode(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != len(classes) || res.Methods == 0 || len(res.Verdicts) != res.Methods {
		t.Fatalf("bytecode verify of valid jar: %+v", res)
	}
	for _, v := range res.Verdicts {
		if !v.OK || v.Error != "" {
			t.Fatalf("valid jar got failing verdict: %+v", v)
		}
	}

	// Break one method body: the response pinpoints it by pc and opcode.
	var name string
	var data []byte
	for name, data = range classes {
		break
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range cf.Methods {
		if code := classfile.CodeOf(&cf.Methods[mi]); code != nil && len(code.Code) > 0 {
			code.Code = []byte{0x60, 0xb1} // iadd on an empty stack; return
			break
		}
	}
	bad, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	badJar, err := archive.WriteJar([]archive.File{{Name: name, Data: bad}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = c.VerifyBytecode(ctx, badJar)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, v := range res.Verdicts {
		if v.OK {
			continue
		}
		failures++
		if v.Name != name || v.PC < 0 || v.Op == "" || v.Error == "" {
			t.Fatalf("failing verdict lacks location: %+v", v)
		}
	}
	if failures != 1 {
		t.Fatalf("%d failing verdicts, want 1: %+v", failures, res.Verdicts)
	}
}

// TestArchiveClassEndpoints pins the lazy-serving acceptance from the
// version-3 container work: on a >=500-class chunked archive, a single
// class GET decodes only the chunk containing that class (observed via
// the class_bytes_decoded counter), and ?classes= subsets come back as
// jars without a full unpack.
func TestArchiveClassEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("large synth archive skipped in -short mode")
	}
	p, err := synth.ProfileByName("rt")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfs) < 500 {
		t.Fatalf("corpus has %d classes, want >= 500", len(cfs))
	}
	var members []archive.File
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, archive.File{Name: cf.ThisClassName() + ".class", Data: data})
	}
	jar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}

	opts := classpack.DefaultOptions()
	opts.ChunkClasses = 16
	s, c, _ := startServer(t, Config{Store: newStore(t), Options: opts})
	ctx := context.Background()

	res, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packed) < 6 || res.Packed[4] != 3 {
		t.Fatalf("server packed container version %d, want 3", res.Packed[4])
	}

	// Ground truth: a local lazy archive over the same bytes gives the
	// per-class payloads and the total decode cost of touching every
	// chunk.
	local, err := classpack.OpenArchiveBytes(res.Packed, &opts)
	if err != nil {
		t.Fatal(err)
	}
	names := local.ClassNames()
	ords := make([]int, local.NumClasses())
	for g := range ords {
		ords[g] = g
	}
	if _, err := local.ExtractOrdinals(ords); err != nil {
		t.Fatal(err)
	}
	fullDecoded := local.DecodedBytes()

	// By-name endpoints need unambiguous names: the synth corpus carries
	// a few duplicate class names, which by-name extraction refuses.
	seen := make(map[string]int)
	for _, n := range names {
		seen[n]++
	}
	var unique []string
	for _, n := range names {
		if seen[n] == 1 {
			unique = append(unique, n)
		}
	}
	if len(unique) < 10 {
		t.Fatalf("only %d unique class names", len(unique))
	}

	// One class via GET /archive/{digest}/class/{name}: byte-equal to
	// the local extraction and only one chunk's worth of decoding.
	target := unique[len(unique)/2]
	got, err := c.ArchiveClass(ctx, res.Digest, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.ExtractClass(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served class %q differs from local extraction", target)
	}
	single := s.Metrics().ClassBytesDecoded.Value()
	if single <= 0 {
		t.Fatal("class_bytes_decoded did not advance")
	}
	if single*5 > fullDecoded {
		t.Errorf("single class GET decoded %d of %d total bytes — not O(chunk)", single, fullDecoded)
	}

	// ".class" suffix is accepted, and unknown names are structured 404s.
	if got2, err := c.ArchiveClass(ctx, res.Digest, target+".class"); err != nil || !bytes.Equal(got2, got) {
		t.Fatalf("suffixed fetch: %v", err)
	}
	var apiErr *client.APIError
	if _, err := c.ArchiveClass(ctx, res.Digest, "no/such/Class"); !errors.As(err, &apiErr) || apiErr.Code != "class_not_found" || apiErr.Status != http.StatusNotFound {
		t.Fatalf("missing class: err = %v, want class_not_found 404", err)
	}

	// A ?classes= subset comes back as a jar of exactly the selection,
	// in archive order.
	sel := []string{unique[len(unique)-1], unique[0], unique[len(unique)/3]}
	subsetJar, err := c.ArchiveClasses(ctx, res.Digest, sel)
	if err != nil {
		t.Fatal(err)
	}
	subset, err := archive.ReadJar(subsetJar)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != len(sel) {
		t.Fatalf("subset jar has %d members, want %d", len(subset), len(sel))
	}
	for _, m := range subset {
		want, err := local.ExtractClass(m.Name)
		if err != nil {
			t.Fatalf("unexpected subset member %s: %v", m.Name, err)
		}
		if !bytes.Equal(m.Data, want) {
			t.Fatalf("subset member %s differs from local extraction", m.Name)
		}
	}

	// Pattern failure modes: no match is a 404, a malformed glob a 400.
	if _, err := c.ArchiveClasses(ctx, res.Digest, []string{"no/such/*"}); !errors.As(err, &apiErr) || apiErr.Code != "no_match" {
		t.Fatalf("no-match subset: err = %v, want no_match", err)
	}
	if _, err := c.ArchiveClasses(ctx, res.Digest, []string{"a[/b"}); !errors.As(err, &apiErr) || apiErr.Code != "bad_pattern" {
		t.Fatalf("malformed pattern: err = %v, want bad_pattern", err)
	}
}

// synthJar builds a jar over the "rt" synth corpus at the given scale,
// returning the jar and the raw class bytes in member order.
func synthJar(t *testing.T, scale float64) ([]byte, [][]byte) {
	t.Helper()
	p, err := synth.ProfileByName("rt")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, scale)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]byte, len(cfs))
	var members []archive.File
	for i, cf := range cfs {
		if raw[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
		members = append(members, archive.File{Name: cf.ThisClassName() + ".class", Data: raw[i]})
	}
	jar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	return jar, raw
}

// TestDeltaEndpoint pins GET /delta/{from}/{to}: between two cached
// archives that differ in ~5% of their classes, the served patch is a
// small fraction of the new archive, reconstructs it byte-for-byte via
// ApplyDelta, and moves the delta_requests / delta_bytes_saved
// counters. Unknown and malformed digests are structured 404s/400s.
func TestDeltaEndpoint(t *testing.T) {
	oldJar, raw := synthJar(t, 0.1)
	mutated, changed, err := synth.MutateClasses(raw, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("version bump mutated nothing")
	}
	var members []archive.File
	for i, data := range mutated {
		members = append(members, archive.File{Name: fmt.Sprintf("c%d.class", i), Data: data})
	}
	newJar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}

	opts := classpack.DefaultOptions()
	opts.ChunkClasses = 16
	s, c, _ := startServer(t, Config{Store: newStore(t), Options: opts})
	ctx := context.Background()

	oldRes, err := c.Pack(ctx, oldJar)
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := c.Pack(ctx, newJar)
	if err != nil {
		t.Fatal(err)
	}

	patch, err := c.Delta(ctx, oldRes.Digest, newRes.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(patch)*4 > len(newRes.Packed) {
		t.Errorf("patch is %d bytes for a %d-byte archive — no bandwidth saved",
			len(patch), len(newRes.Packed))
	}
	got, err := classpack.ApplyDelta(oldRes.Packed, patch, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newRes.Packed) {
		t.Fatal("ApplyDelta(old, served patch) differs from the new archive")
	}

	if v := s.Metrics().DeltaRequests.Value(); v != 1 {
		t.Errorf("delta_requests = %d, want 1", v)
	}
	if v := s.Metrics().DeltaBytesSaved.Value(); v != int64(len(newRes.Packed)-len(patch)) {
		t.Errorf("delta_bytes_saved = %d, want %d", v, len(newRes.Packed)-len(patch))
	}

	// Failure modes: unknown digest 404, malformed digest 400, and the
	// self-delta degenerate case still applies cleanly.
	var apiErr *client.APIError
	unknown := strings.Repeat("ab", 32)
	if _, err := c.Delta(ctx, unknown, newRes.Digest); !errors.As(err, &apiErr) ||
		apiErr.Code != "not_found" || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown from-digest: err = %v, want not_found 404", err)
	}
	if _, err := c.Delta(ctx, oldRes.Digest, unknown); !errors.As(err, &apiErr) ||
		apiErr.Code != "not_found" || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown to-digest: err = %v, want not_found 404", err)
	}
	if _, err := c.Delta(ctx, "zz", newRes.Digest); !errors.As(err, &apiErr) ||
		apiErr.Code != "bad_digest" || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("malformed digest: err = %v, want bad_digest 400", err)
	}
	self, err := c.Delta(ctx, oldRes.Digest, oldRes.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := classpack.ApplyDelta(oldRes.Packed, self, &opts); err != nil || !bytes.Equal(got, oldRes.Packed) {
		t.Fatalf("self-delta did not round-trip: %v", err)
	}
}

// TestArchiveClassAmbiguous pins the duplicate-name fix at the HTTP
// layer: a cached archive holding two classes with the same name serves
// a structured 409 for that name instead of silently picking one, while
// a ?classes= glob subset still returns every occurrence.
func TestArchiveClassAmbiguous(t *testing.T) {
	_, classes := testJar(t)
	box := classes["Box.class"]
	twin, ok, err := synth.MutateClass(box)
	if err != nil || !ok {
		t.Fatalf("mutating Box: ok=%v err=%v", ok, err)
	}
	members := []archive.File{
		{Name: "Box.class", Data: box},
		{Name: "Main.class", Data: classes["Main.class"]},
		{Name: "Box.class", Data: twin},
	}
	dupJar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}

	opts := classpack.DefaultOptions()
	opts.ChunkClasses = 1
	_, c, _ := startServer(t, Config{Store: newStore(t), Options: opts})
	ctx := context.Background()
	res, err := c.Pack(ctx, dupJar)
	if err != nil {
		t.Fatal(err)
	}

	var apiErr *client.APIError
	if _, err := c.ArchiveClass(ctx, res.Digest, "Box"); !errors.As(err, &apiErr) ||
		apiErr.Code != "class_ambiguous" || apiErr.Status != http.StatusConflict {
		t.Fatalf("ambiguous class: err = %v, want class_ambiguous 409", err)
	}
	// The unambiguous member still serves.
	if _, err := c.ArchiveClass(ctx, res.Digest, "Main"); err != nil {
		t.Fatalf("unambiguous class: %v", err)
	}
	// Glob subsets address occurrences by ordinal, so both twins come back.
	subsetJar, err := c.ArchiveClasses(ctx, res.Digest, []string{"Box*"})
	if err != nil {
		t.Fatal(err)
	}
	subset, err := archive.ReadJar(subsetJar)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 {
		t.Fatalf("subset holds %d members, want both Box occurrences", len(subset))
	}
}

// TestCacheReadErrorsSurfaced pins the cache-miss-vs-error fix: when the
// store read fails outright (the object path is unreadable, not merely
// absent), POST /pack still succeeds by re-encoding but counts a
// cache_error, and GET /archive reports a 500 instead of a 404.
func TestCacheReadErrorsSurfaced(t *testing.T) {
	jar, _ := testJar(t)
	st := newStore(t)
	s, c, _ := startServer(t, Config{Store: st})
	ctx := context.Background()

	res, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the stored object: replace its file with a directory, so
	// Get fails with a real I/O error rather than a not-exist miss.
	objPath := filepath.Join(st.Dir(), res.Digest[:2], res.Digest)
	if err := os.Remove(objPath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(objPath, "x"), 0o755); err != nil {
		t.Fatal(err)
	}

	second, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatalf("pack must survive a failing cache read: %v", err)
	}
	if second.Cache != "miss" {
		t.Fatalf("cache = %q, want miss after read failure", second.Cache)
	}
	if v := s.Metrics().CacheErrors.Value(); v < 1 {
		t.Errorf("cache_errors = %d, want >= 1 after a failing read", v)
	}

	var apiErr *client.APIError
	if _, err := c.Archive(ctx, res.Digest); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("archive over broken cache: err = %v, want HTTP 500", err)
	}
}
