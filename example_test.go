package classpack_test

import (
	"bytes"
	"fmt"
	"log"

	"classpack"
	"classpack/internal/classfile"
	"classpack/internal/minijava"
)

// compileDemo builds two small classfiles to feed the examples.
func compileDemo() [][]byte {
	cfs, err := minijava.Compile(`
class Main { public static void main(String[] a) { System.out.println(new Adder().add(2, 3)); } }
class Adder { public int add(int x, int y) { return x + y; } }
`, minijava.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var files [][]byte
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			log.Fatal(err)
		}
		files = append(files, data)
	}
	return files
}

func ExamplePack() {
	files := compileDemo()
	packed, err := classpack.Pack(files, nil)
	if err != nil {
		log.Fatal(err)
	}
	out, err := classpack.Unpack(packed)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range out {
		fmt.Println(f.Name)
	}
	// Output:
	// Main.class
	// Adder.class
}

func ExampleUnpackStream() {
	packed, err := classpack.Pack(compileDemo(), nil)
	if err != nil {
		log.Fatal(err)
	}
	// Classes stream out one at a time, in archive order (§11: an eager
	// loader can define each one as it arrives).
	err = classpack.UnpackStream(bytes.NewReader(packed), func(f classpack.File) error {
		fmt.Println("arrived:", f.Name)
		return nil
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// arrived: Main.class
	// arrived: Adder.class
}

func ExampleStrip() {
	files := compileDemo()
	stripped, err := classpack.Strip(files[0])
	if err != nil {
		log.Fatal(err)
	}
	again, err := classpack.Strip(stripped)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("idempotent:", string(stripped) == string(again))
	// Output:
	// idempotent: true
}

func ExampleOptions() {
	files := compileDemo()
	// The paper's §5.1 design space is explorable per archive.
	opts := classpack.Options{
		Scheme:     classpack.SchemeMTFFull,
		StackState: true,
		Compress:   true,
		Preload:    true, // §14 extension: seed pools with common JDK names
	}
	packed, err := classpack.Pack(files, &opts)
	if err != nil {
		log.Fatal(err)
	}
	out, err := classpack.Unpack(packed) // options travel in the header
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out), "classes")
	// Output:
	// 2 classes
}
