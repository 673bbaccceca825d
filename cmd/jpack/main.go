// Command jpack packs and unpacks collections of Java class files using
// the wire format of "Compressing Java Class Files" (Pugh, PLDI 1999).
//
// Usage:
//
//	jpack pack    [-o out.cjp] [-scheme mtf-full] [-no-stackstate] [-no-gzip] [-chunk N] file.class... | app.jar
//	jpack unpack  [-d outdir] [-jar out.jar] [-salvage] archive.cjp
//	jpack ls      archive.cjp
//	jpack extract [-d outdir] [-jar out.jar] archive.cjp pattern...
//	jpack delta   [-o patch.cjpd] old.cjp new.cjp
//	jpack apply   [-o new.cjp] old.cjp patch.cjpd
//	jpack strip   [-o out.class] file.class
//	jpack stats   archive-inputs...
//	jpack verify  [-deep] [-bytecode] [-max-failures N] file.class... | app.jar | archive.cjp
package main

import (
	"archive/zip"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"classpack"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/dump"
)

// archiveMagic identifies a packed archive among verify operands.
var archiveMagic = core.Magic

// Exit codes: 0 success, 1 operational failure (I/O, bad input data,
// invalid classes), 2 usage error (unknown command/flag, bad flag
// value, wrong operands).
const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

// usageError marks a command-line mistake, distinguishing exit code 2
// from operational failures (exit code 1).
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// usagef builds a usageError like fmt.Errorf.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches a jpack invocation and returns its exit code; main is
// kept trivial so tests can assert codes without spawning a process.
// Global -cpuprofile/-memprofile flags precede the command so any
// subcommand can be profiled:
//
//	jpack -cpuprofile cpu.out pack -o app.cjp app.jar
func run(args []string) int {
	prof, args, err := parseProfileFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jpack:", err)
		return exitUsage
	}
	if err := prof.start(); err != nil {
		fmt.Fprintln(os.Stderr, "jpack:", err)
		return exitFailure
	}
	code := dispatch(args)
	if err := prof.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "jpack:", err)
		if code == exitOK {
			code = exitFailure
		}
	}
	return code
}

// dispatch runs the subcommand and maps its error to an exit code.
func dispatch(args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	var err error
	switch args[0] {
	case "pack":
		err = cmdPack(args[1:])
	case "unpack":
		err = cmdUnpack(args[1:])
	case "ls":
		err = cmdLs(args[1:])
	case "extract":
		err = cmdExtract(args[1:])
	case "delta":
		err = cmdDelta(args[1:])
	case "apply":
		err = cmdApply(args[1:])
	case "strip":
		err = cmdStrip(args[1:])
	case "stats":
		err = cmdStats(args[1:])
	case "verify":
		err = cmdVerify(args[1:])
	case "dump":
		err = cmdDump(args[1:])
	case "remote":
		err = cmdRemote(args[1:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "jpack: unknown command %q\n", args[0])
		usage()
		return exitUsage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jpack:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return exitUsage
		}
		return exitFailure
	}
	return exitOK
}

// profiler holds the state of the global -cpuprofile/-memprofile
// flags: an active CPU profile to stop and a heap-profile path to
// write once the command finishes.
type profiler struct {
	cpuPath string
	memPath string
	cpuFile *os.File
}

// parseProfileFlags strips the leading global profiling flags from the
// argument list, leaving the subcommand and its own flags untouched.
func parseProfileFlags(args []string) (*profiler, []string, error) {
	p := &profiler{}
	for len(args) > 0 {
		switch args[0] {
		case "-cpuprofile", "-memprofile":
			if len(args) < 2 {
				return nil, nil, usagef("flag %s needs a file argument", args[0])
			}
			if args[0] == "-cpuprofile" {
				p.cpuPath = args[1]
			} else {
				p.memPath = args[1]
			}
			args = args[2:]
		default:
			return p, args, nil
		}
	}
	return p, args, nil
}

func (p *profiler) start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

func (p *profiler) stop() error {
	var firstErr error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		firstErr = p.cpuFile.Close()
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err == nil {
			// Settle the heap so the profile reflects live objects,
			// not whatever garbage the command left behind.
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  jpack pack    [-o out.cjp] [-scheme NAME] [-no-stackstate] [-no-gzip] [-chunk N] [-j N] <file.class ... | app.jar>
  jpack unpack  [-d outdir] [-jar out.jar] [-j N] [-salvage] <archive.cjp>
  jpack ls      <archive.cjp>
  jpack extract [-d outdir] [-jar out.jar] [-j N] <archive.cjp> <class | pattern> ...
  jpack delta   [-o patch.cjpd] [-j N] <old.cjp> <new.cjp>
  jpack apply   [-o new.cjp] [-j N] <old.cjp> <patch.cjpd>
  jpack strip   [-o out.class] <file.class>
  jpack stats   <file.class ... | app.jar>
  jpack verify  [-deep] [-bytecode] [-j N] [-max-failures N] <file.class ... | app.jar | archive.cjp>
  jpack dump    [-pool] [-code] <file.class ... | app.jar>
  jpack remote pack   [-server URL] [-o out.cjp] <app.jar | file.class ...>
  jpack remote unpack [-server URL] [-jar out.jar | -d outdir] <archive.cjp>

schemes: simple, basic, mtf, mtf-transients, mtf-context, mtf-full (default)
-j N bounds the worker pool (0 = all cores, the default; 1 = serial).
Output is byte-identical for every -j value.
pack -chunk N writes the version-3 random-access layout, grouping N
classes per chunk behind a seekable class index; 0 (the default) keeps
the monolithic version-2 layout.
ls lists an archive's classes without decoding class bodies (for
version 3, per-chunk sizes too); extract decodes only the chunks
holding the selected classes ('java/util/*' patterns use path.Match).
delta writes a CJPD patch carrying only the classes new.cjp adds or
changes relative to old.cjp; apply rebuilds new.cjp byte-for-byte from
old.cjp plus the patch, verifying the recorded digest.
-salvage recovers what a damaged archive still holds, prints a damage
report to stderr, and exits 1 when it finds any damage.
verify -deep adds the dataflow bytecode verifier; -bytecode prints one
verdict per method instead, locating failures by pc and opcode.
verify operands may be packed archives: their classes are unpacked and
verified individually.
remote commands talk to a jpackd server (-server or $JPACKD_SERVER).

exit codes: 0 ok, 1 pack/verify failure, 2 usage error.
`)
}

func schemeByName(name string) (classpack.Scheme, error) {
	s, err := classpack.SchemeByName(name)
	if err != nil {
		return 0, usageError{err}
	}
	return s, nil
}

// parseJobs parses a -j value: 0 means all cores, 1 means serial.
func parseJobs(s string) (int, error) {
	j, err := strconv.Atoi(s)
	if err != nil || j < 0 {
		return 0, usagef("invalid -j value %q (want an integer >= 0)", s)
	}
	return j, nil
}

// throughput formats a byte count over a duration as decimal MB/s.
func throughput(bytes int, elapsed time.Duration) string {
	s := elapsed.Seconds()
	if s <= 0 {
		s = 1e-9
	}
	return fmt.Sprintf("%.1f MB/s", float64(bytes)/1e6/s)
}

// parseFlags splits leading -flag arguments from file operands.
func parseFlags(args []string, flags map[string]*string, bools map[string]*bool) ([]string, error) {
	i := 0
	for i < len(args) {
		arg := args[i]
		if !strings.HasPrefix(arg, "-") {
			break
		}
		if b, ok := bools[arg]; ok {
			*b = true
			i++
			continue
		}
		if f, ok := flags[arg]; ok {
			if i+1 >= len(args) {
				return nil, usagef("flag %s needs a value", arg)
			}
			*f = args[i+1]
			i += 2
			continue
		}
		return nil, usagef("unknown flag %s", arg)
	}
	return args[i:], nil
}

// classInput is one class to process plus the name to report it under:
// the operand path for a .class file, "jar!member" for a jar member.
type classInput struct {
	name string
	data []byte
}

// loadClassInputs reads the operands: .class files directly, .jar files as
// containers of classes. It returns class bytes and skipped member names.
func loadClassInputs(paths []string) ([][]byte, []string, error) {
	inputs, skipped, err := loadNamedClassInputs(paths)
	if err != nil {
		return nil, nil, err
	}
	classes := make([][]byte, len(inputs))
	for i, in := range inputs {
		classes[i] = in.data
	}
	return classes, skipped, nil
}

// loadNamedClassInputs is loadClassInputs keeping a reportable name per
// class, for commands that print per-class verdicts.
func loadNamedClassInputs(paths []string) ([]classInput, []string, error) {
	var classes []classInput
	var skipped []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(path, ".jar") || strings.HasSuffix(path, ".zip") {
			members, skip, err := jarClasses(data)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			for _, m := range members {
				classes = append(classes, classInput{path + "!" + m.name, m.data})
			}
			skipped = append(skipped, skip...)
			continue
		}
		classes = append(classes, classInput{path, data})
	}
	return classes, skipped, nil
}

func jarClasses(jar []byte) ([]classInput, []string, error) {
	zr, err := zip.NewReader(bytes.NewReader(jar), int64(len(jar)))
	if err != nil {
		return nil, nil, err
	}
	var classes []classInput
	var skipped []string
	for _, zf := range zr.File {
		if !strings.HasSuffix(zf.Name, ".class") {
			if !strings.HasSuffix(zf.Name, "/") {
				skipped = append(skipped, zf.Name)
			}
			continue
		}
		r, err := zf.Open()
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			return nil, nil, err
		}
		classes = append(classes, classInput{zf.Name, data})
	}
	return classes, skipped, nil
}

func cmdPack(args []string) error {
	out := "out.cjp"
	scheme := "mtf-full"
	jobs := "0"
	chunk := "0"
	noSS, noGz, preload := false, false, false
	files, err := parseFlags(args,
		map[string]*string{"-o": &out, "-scheme": &scheme, "-j": &jobs, "-chunk": &chunk},
		map[string]*bool{"-no-stackstate": &noSS, "-no-gzip": &noGz, "-preload": &preload})
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return usagef("no input files")
	}
	s, err := schemeByName(scheme)
	if err != nil {
		return err
	}
	j, err := parseJobs(jobs)
	if err != nil {
		return err
	}
	chunkN, err := strconv.Atoi(chunk)
	if err != nil || chunkN < 0 {
		return usagef("invalid -chunk value %q (want an integer >= 0; 0 = monolithic version 2)", chunk)
	}
	opts := classpack.DefaultOptions()
	opts.Scheme = s
	opts.StackState = !noSS
	opts.Compress = !noGz
	opts.Preload = preload
	opts.Concurrency = j
	opts.ChunkClasses = chunkN
	classes, skipped, err := loadClassInputs(files)
	if err != nil {
		return err
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "jpack: skipping non-class member %s\n", s)
	}
	raw := 0
	for _, c := range classes {
		raw += len(c)
	}
	start := time.Now()
	packed, err := classpack.Pack(classes, &opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := os.WriteFile(out, packed, 0o644); err != nil {
		return err
	}
	fmt.Printf("packed %d classes: %d -> %d bytes (%.1f%%) in %v (%s)\n",
		len(classes), raw, len(packed), 100*float64(len(packed))/float64(raw),
		elapsed.Round(time.Millisecond), throughput(raw, elapsed))
	return nil
}

func cmdUnpack(args []string) error {
	dir := "."
	jarOut := ""
	jobs := "0"
	salvage := false
	files, err := parseFlags(args,
		map[string]*string{"-d": &dir, "-jar": &jarOut, "-j": &jobs},
		map[string]*bool{"-salvage": &salvage})
	if err != nil {
		return err
	}
	if len(files) != 1 {
		return usagef("unpack takes exactly one archive")
	}
	j, err := parseJobs(jobs)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	if salvage {
		return salvageUnpack(data, dir, jarOut, j)
	}
	if jarOut != "" {
		start := time.Now()
		jar, err := classpack.UnpackToJarOpts(data, &classpack.Options{Concurrency: j})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if err := os.WriteFile(jarOut, jar, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d -> %d bytes in %v (%s)\n",
			jarOut, len(data), len(jar), elapsed.Round(time.Millisecond),
			throughput(len(jar), elapsed))
		return nil
	}
	start := time.Now()
	out, err := classpack.UnpackOpts(data, &classpack.Options{Concurrency: j})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	total := 0
	for _, f := range out {
		total += len(f.Data)
	}
	for _, f := range out {
		path := filepath.Join(dir, filepath.FromSlash(f.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, f.Data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("unpacked %d classes into %s: %d -> %d bytes in %v (%s)\n",
		len(out), dir, len(data), total, elapsed.Round(time.Millisecond),
		throughput(total, elapsed))
	return nil
}

// openArchiveFile opens a .cjp file for random access without reading
// the class bodies.
func openArchiveFile(path string, j int) (*os.File, *classpack.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	opts := classpack.DefaultOptions()
	opts.Concurrency = j
	a, err := classpack.OpenArchive(f, st.Size(), &opts)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, a, nil
}

// cmdLs lists an archive's classes without decoding any class bodies
// (for a version-3 archive only the header and trailing index are
// read). Version-3 listings include per-chunk sizes.
func cmdLs(args []string) error {
	files, err := parseFlags(args, nil, nil)
	if err != nil {
		return err
	}
	if len(files) != 1 {
		return usagef("ls takes exactly one archive")
	}
	f, a, err := openArchiveFile(files[0], 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if chunks := a.Chunks(); chunks != nil {
		fmt.Printf("%s: version %d, %d classes, %d chunks (chunk size %d)\n",
			files[0], a.Version(), a.NumClasses(), len(chunks), a.ChunkClasses())
		for i, ch := range chunks {
			fmt.Printf("  chunk %d: %d classes, %d bytes\n", i, ch.Classes, ch.CompressedBytes)
		}
	} else {
		fmt.Printf("%s: version %d, %d classes\n", files[0], a.Version(), a.NumClasses())
	}
	for _, name := range a.ClassNames() {
		fmt.Println(name)
	}
	return nil
}

// cmdExtract pulls selected classes out of an archive, decoding only
// the chunks that hold them (version 3) instead of the whole archive.
func cmdExtract(args []string) error {
	dir := "."
	jarOut := ""
	jobs := "0"
	files, err := parseFlags(args,
		map[string]*string{"-d": &dir, "-jar": &jarOut, "-j": &jobs}, nil)
	if err != nil {
		return err
	}
	if len(files) < 2 {
		return usagef("extract takes an archive and at least one class name or pattern")
	}
	j, err := parseJobs(jobs)
	if err != nil {
		return err
	}
	f, a, err := openArchiveFile(files[0], j)
	if err != nil {
		return err
	}
	defer f.Close()
	// Selection and extraction go by ordinal so archives holding
	// duplicate class names still extract every matching occurrence.
	ords, err := a.SelectOrdinals(files[1:]...)
	if err != nil {
		return usageError{err}
	}
	if len(ords) == 0 {
		return fmt.Errorf("%s: no classes match %v", files[0], files[1:])
	}
	if jarOut != "" {
		jar, err := a.ExtractJar(ords)
		if err != nil {
			return err
		}
		if err := os.WriteFile(jarOut, jar, 0o644); err != nil {
			return err
		}
		fmt.Printf("extracted %d of %d classes into %s (%d bytes read of %d)\n",
			len(ords), a.NumClasses(), jarOut, a.BytesRead(), archiveSize(f))
		return nil
	}
	out, err := a.ExtractOrdinals(ords)
	if err != nil {
		return err
	}
	total := 0
	for _, of := range out {
		total += len(of.Data)
	}
	for _, of := range out {
		path := filepath.Join(dir, filepath.FromSlash(of.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, of.Data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("extracted %d of %d classes into %s: %d bytes (%d bytes read of %d)\n",
		len(out), a.NumClasses(), dir, total, a.BytesRead(), archiveSize(f))
	return nil
}

// cmdDelta handles `jpack delta old.cjp new.cjp -o patch.cjpd`: a CJPD
// patch carrying only the classes of new.cjp that old.cjp lacks; the
// rest are references the apply side copies from its own old archive.
func cmdDelta(args []string) error {
	out := "patch.cjpd"
	jobs := "0"
	files, err := parseFlags(args, map[string]*string{"-o": &out, "-j": &jobs}, nil)
	if err != nil {
		return err
	}
	if len(files) != 2 {
		return usagef("delta takes exactly two archives: old.cjp new.cjp")
	}
	j, err := parseJobs(jobs)
	if err != nil {
		return err
	}
	oldArc, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	newArc, err := os.ReadFile(files[1])
	if err != nil {
		return err
	}
	opts := classpack.DefaultOptions()
	opts.Concurrency = j
	start := time.Now()
	patch, err := classpack.Diff(oldArc, newArc, &opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := os.WriteFile(out, patch, 0o644); err != nil {
		return err
	}
	sum, err := classpack.DescribeDelta(patch, &opts)
	if err != nil {
		return err
	}
	fmt.Printf("delta %s -> %s: %d of %d classes carried, %d copied; patch %d bytes (%.1f%% of %d) in %v\n",
		files[0], files[1], sum.PayloadClasses, sum.NewClasses, sum.CopiedClasses,
		len(patch), 100*float64(len(patch))/float64(len(newArc)), len(newArc),
		elapsed.Round(time.Millisecond))
	return nil
}

// cmdApply handles `jpack apply old.cjp patch.cjpd`: reconstruct the
// new archive from the old one plus a patch, verifying the result's
// digest against the one the patch records.
func cmdApply(args []string) error {
	out := "new.cjp"
	jobs := "0"
	files, err := parseFlags(args, map[string]*string{"-o": &out, "-j": &jobs}, nil)
	if err != nil {
		return err
	}
	if len(files) != 2 {
		return usagef("apply takes exactly an archive and a patch: old.cjp patch.cjpd")
	}
	j, err := parseJobs(jobs)
	if err != nil {
		return err
	}
	oldArc, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	patch, err := os.ReadFile(files[1])
	if err != nil {
		return err
	}
	opts := classpack.DefaultOptions()
	opts.Concurrency = j
	start := time.Now()
	newArc, err := classpack.ApplyDelta(oldArc, patch, &opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := os.WriteFile(out, newArc, 0o644); err != nil {
		return err
	}
	fmt.Printf("applied %s to %s: %d-byte archive rebuilt into %s (digest verified) in %v\n",
		files[1], files[0], len(newArc), out, elapsed.Round(time.Millisecond))
	return nil
}

// archiveSize is the archive file's size, best effort (0 on error).
func archiveSize(f *os.File) int64 {
	st, err := f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// salvageUnpack handles unpack -salvage: recover what a damaged archive
// still holds, write it out, report the damage, and exit nonzero when
// the archive was damaged at all — jpackd's rule for answering 206.
// Damage that loses no class counts too: when a version-1/2 archive's
// int.meta is damaged, the class count is unreadable, so no class is
// charged to the damage although none came back.
func salvageUnpack(data []byte, dir, jarOut string, j int) error {
	opts := classpack.DefaultOptions()
	opts.Concurrency = j
	res, err := classpack.Salvage(data, &opts)
	if err != nil {
		return err
	}
	for _, d := range res.Damage {
		where := d.Stream
		if d.Offset >= 0 {
			where = fmt.Sprintf("%s@%d", d.Stream, d.Offset)
		}
		fmt.Fprintf(os.Stderr, "jpack: damage in %s: %s (%d classes lost)\n",
			where, d.Cause, d.ClassesLost)
	}
	if jarOut != "" {
		jar, err := res.Jar()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jarOut, jar, 0o644); err != nil {
			return err
		}
	} else {
		for _, f := range res.Files {
			path := filepath.Join(dir, filepath.FromSlash(f.Name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, f.Data, 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Printf("salvaged %d of %d classes (%d lost, %d damage regions)\n",
		res.Recovered, res.TotalClasses, res.Lost, len(res.Damage))
	if res.Lost > 0 || len(res.Damage) > 0 {
		return fmt.Errorf("archive damaged: %d of %d classes lost, %d damage regions",
			res.Lost, res.TotalClasses, len(res.Damage))
	}
	return nil
}

func cmdStrip(args []string) error {
	out := ""
	files, err := parseFlags(args, map[string]*string{"-o": &out}, nil)
	if err != nil {
		return err
	}
	if len(files) != 1 {
		return usagef("strip takes exactly one class file")
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	stripped, err := classpack.Strip(data)
	if err != nil {
		return err
	}
	if out == "" {
		out = files[0]
	}
	if err := os.WriteFile(out, stripped, 0o644); err != nil {
		return err
	}
	fmt.Printf("stripped %s: %d -> %d bytes\n", files[0], len(data), len(stripped))
	return nil
}

func cmdStats(args []string) error {
	files, err := parseFlags(args, nil, nil)
	if err != nil {
		return err
	}
	classes, _, err := loadClassInputs(files)
	if err != nil {
		return err
	}
	stats, err := classpack.PackStats(classes, nil)
	if err != nil {
		return err
	}
	total := stats.Strings + stats.Opcodes + stats.Ints + stats.Refs + stats.Misc
	fmt.Printf("packed archive composition (%d classes, %d bytes):\n", len(classes), total)
	show := func(label string, v int) {
		fmt.Printf("  %-8s %8d bytes  %5.1f%%\n", label, v, 100*float64(v)/float64(total))
	}
	show("strings", stats.Strings)
	show("opcodes", stats.Opcodes)
	show("ints", stats.Ints)
	show("refs", stats.Refs)
	show("misc", stats.Misc)
	return nil
}

func cmdVerify(args []string) error {
	deep := false
	bytecodeMode := false
	jobs := "0"
	maxFailures := "20"
	files, err := parseFlags(args,
		map[string]*string{"-j": &jobs, "-max-failures": &maxFailures},
		map[string]*bool{"-deep": &deep, "-bytecode": &bytecodeMode})
	if err != nil {
		return err
	}
	j, err := parseJobs(jobs)
	if err != nil {
		return err
	}
	limit, err := strconv.Atoi(maxFailures)
	if err != nil || limit < 0 {
		return usagef("invalid -max-failures value %q (want an integer >= 0, 0 = unlimited)", maxFailures)
	}
	inputs, skipped, err := loadNamedClassInputs(files)
	if err != nil {
		return err
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "jpack: skipping non-class member %s\n", s)
	}
	if inputs, err = expandArchives(inputs); err != nil {
		return err
	}
	if bytecodeMode {
		return verifyBytecode(inputs, limit)
	}
	contents := make([][]byte, len(inputs))
	for i, in := range inputs {
		contents[i] = in.data
	}
	// Verification fans out across classes; verdicts print in input
	// order, one per class, with the INVALID listing capped.
	errs := classpack.VerifyAll(contents, deep, j)
	bad := 0
	for i, in := range inputs {
		if errs[i] != nil {
			bad++
			if limit == 0 || bad <= limit {
				fmt.Printf("%s: INVALID: %v\n", in.name, errs[i])
			}
		} else {
			fmt.Printf("%s: ok\n", in.name)
		}
	}
	if limit > 0 && bad > limit {
		fmt.Printf("... and %d more invalid classes\n", bad-limit)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d classes invalid", bad, len(inputs))
	}
	return nil
}

// expandArchives replaces any packed-archive input (CJP1 magic) with
// the class files it decodes to, so verify accepts .cjp archives
// alongside .class and .jar operands.
func expandArchives(inputs []classInput) ([]classInput, error) {
	out := inputs[:0]
	for _, in := range inputs {
		if len(in.data) < 4 || !bytes.Equal(in.data[:4], archiveMagic[:]) {
			out = append(out, in)
			continue
		}
		files, err := classpack.Unpack(in.data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		for _, f := range files {
			out = append(out, classInput{in.name + "!" + f.Name, f.Data})
		}
	}
	return out, nil
}

// verifyBytecode runs the dataflow bytecode verifier over every method
// of every input, printing one verdict per method. The INVALID listing
// is capped by -max-failures like the per-class mode.
func verifyBytecode(inputs []classInput, limit int) error {
	classes, methods, bad := 0, 0, 0
	for _, in := range inputs {
		classes++
		verdicts, err := classpack.VerifyBytecode(in.data)
		if err != nil {
			bad++
			if limit == 0 || bad <= limit {
				fmt.Printf("%s: INVALID: %v\n", in.name, err)
			}
			continue
		}
		for _, v := range verdicts {
			methods++
			switch {
			case v.OK:
				fmt.Printf("%s: %s.%s%s: ok\n", in.name, v.Class, v.Method, v.Desc)
			case v.PC >= 0:
				bad++
				if limit == 0 || bad <= limit {
					fmt.Printf("%s: %s.%s%s: INVALID at pc %d (%s): %s\n",
						in.name, v.Class, v.Method, v.Desc, v.PC, v.Op, v.Err)
				}
			default:
				bad++
				if limit == 0 || bad <= limit {
					fmt.Printf("%s: %s.%s%s: INVALID: %s\n",
						in.name, v.Class, v.Method, v.Desc, v.Err)
				}
			}
		}
	}
	if limit > 0 && bad > limit {
		fmt.Printf("... and %d more failures\n", bad-limit)
	}
	if bad > 0 {
		return fmt.Errorf("%d verification failures across %d classes (%d methods)", bad, classes, methods)
	}
	fmt.Printf("%d classes, %d methods: all bytecode verified\n", classes, methods)
	return nil
}

func cmdDump(args []string) error {
	pool, code := false, false
	files, err := parseFlags(args, nil, map[string]*bool{"-pool": &pool, "-code": &code})
	if err != nil {
		return err
	}
	if !pool && !code {
		code = true
	}
	classes, _, err := loadClassInputs(files)
	if err != nil {
		return err
	}
	for _, data := range classes {
		cf, err := classfile.Parse(data)
		if err != nil {
			return err
		}
		if err := dump.Class(os.Stdout, cf, dump.Options{Pool: pool, Code: code}); err != nil {
			return err
		}
	}
	return nil
}
