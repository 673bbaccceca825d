// Applet delivery: the paper's motivating scenario (§1). A Java
// application must reach a client over a slow mobile or modem link; this
// example builds a realistic multi-class application, packages it as a
// jar, a j0r.gz (whole-archive gzip, §2.1) and a packed archive, and
// reports the transmission time of each at modem and GSM line rates.
package main

import (
	"fmt"
	"log"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/strip"
	"classpack/internal/synth"
)

func main() {
	// An icebrowserbean-sized application (~226 KB of classfiles, Table 1).
	profile, err := synth.ProfileByName("icebrowserbean")
	if err != nil {
		log.Fatal(err)
	}
	cfs, err := synth.Generate(profile, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application: %d classes (HTML browser bean scenario)\n\n", len(cfs))

	// As-distributed files, then the stripped forms every wire format uses.
	var rawFiles [][]byte
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			log.Fatal(err)
		}
		rawFiles = append(rawFiles, data)
	}
	if err := strip.ApplyAllN(cfs, strip.Options{}, 1); err != nil {
		log.Fatal(err)
	}
	var files []archive.File
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			log.Fatal(err)
		}
		files = append(files, archive.File{Name: cf.ThisClassName() + ".class", Data: data})
	}

	jar, err := archive.WriteJar(files)
	if err != nil {
		log.Fatal(err)
	}
	j0rgz, err := archive.WriteJ0rGz(files)
	if err != nil {
		log.Fatal(err)
	}
	packed, err := classpack.Pack(rawFiles, nil)
	if err != nil {
		log.Fatal(err)
	}

	links := []struct {
		name string
		bps  float64
	}{
		{"9.6 kbit/s GSM data", 9600},
		{"28.8 kbit/s modem", 28800},
		{"128 kbit/s ISDN", 128000},
	}
	fmt.Printf("%-22s %10s %s\n", "format", "size", "transmission time")
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"jar (per-file gzip)", jar},
		{"j0r.gz (whole gzip)", j0rgz},
		{"packed (this paper)", packed},
	} {
		fmt.Printf("%-22s %7d B ", f.name, len(f.data))
		for _, l := range links {
			secs := float64(len(f.data)) * 8 / l.bps
			fmt.Printf(" %6.1fs@%s", secs, l.name[:4])
		}
		fmt.Println()
	}
	fmt.Printf("\npacked archive is %.0f%% of the jar — a %0.1fx faster download\n",
		100*float64(len(packed))/float64(len(jar)),
		float64(len(jar))/float64(len(packed)))

	// Non-class resources travel in a plain jar next to the packed archive
	// (§12); signatures must be computed over the decompressed classes.
	stats, err := classpack.PackStats(rawFiles, nil)
	if err != nil {
		log.Fatal(err)
	}
	total := stats.Strings + stats.Opcodes + stats.Ints + stats.Refs + stats.Misc
	fmt.Printf("\nwhere the packed bytes go (Table 6 breakdown):\n")
	fmt.Printf("  strings %3.0f%%  opcodes %3.0f%%  ints %3.0f%%  refs %3.0f%%  misc %3.0f%%\n",
		100*float64(stats.Strings)/float64(total), 100*float64(stats.Opcodes)/float64(total),
		100*float64(stats.Ints)/float64(total), 100*float64(stats.Refs)/float64(total),
		100*float64(stats.Misc)/float64(total))
}
