// Eager class loading (§11 of the paper): instead of caching a downloaded
// archive and loading classes on demand, classes are defined into the VM
// as they arrive off the wire. For that to work without blocking, each
// class's superclass must appear in the archive before the class itself.
//
// This example compiles an inheritance-heavy program, orders the classes
// superclass-first with classpack.OrderForEagerLoading, packs them, and
// then streams the archive with classpack.UnpackStream: as each class is
// decoded it is immediately "defined" into the embedded interpreter, and
// the program starts the moment everything is resident.
//
// UnpackStream is one of classpack's five decode calls. Unpack and
// UnpackOpts return every class at once, UnpackToJar and UnpackToJarOpts
// rebuild a jar, and UnpackStream reads an io.Reader and hands over each
// class the moment it is decoded; the Opts forms and UnpackStream take
// options (workers and resource caps), and nil means the defaults.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"classpack"
	"classpack/internal/classfile"
	"classpack/internal/minijava"
)

const program = `
class Main {
    public static void main(String[] args) {
        Shape s;
        s = new Circle();
        System.out.println(s.area(10));
        s = new Square();
        System.out.println(s.area(10));
        s = new DoubleSquare();
        System.out.println(s.area(10));
    }
}
class Shape {
    public int area(int size) { return 0; }
}
class Circle extends Shape {
    public int area(int r) { return 314 * r * r / 100; }
}
class Square extends Shape {
    public int area(int side) { return side * side; }
}
class DoubleSquare extends Square {
    public int area(int side) { return 2 * side * side; }
}
`

func main() {
	cfs, err := minijava.Compile(program, minijava.CompileOptions{})
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

	// §11: "we should make sure that the superclass of X ... appears in
	// the archive before X."
	ordered, err := classpack.OrderForEagerLoading(files)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("archive order (superclass before subclass):")
	for i, data := range ordered {
		cf, err := classfile.Parse(data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d. %-14s extends %s\n", i+1, cf.ThisClassName(), cf.SuperClassName())
	}

	packed, err := classpack.Pack(ordered, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npacked archive: %d bytes\n\n", len(packed))

	// Stream-decode: UnpackStream hands over each class the moment it is
	// complete, so the loader never needs the whole archive in memory.
	var loaded []*classfile.ClassFile
	defined := map[string]bool{"java/lang/Object": true}
	fmt.Println("eager loading as classes arrive:")
	err = classpack.UnpackStream(bytes.NewReader(packed), func(f classpack.File) error {
		cf, err := classfile.Parse(f.Data)
		if err != nil {
			return err
		}
		// The superclass is always already defined, so defineClass never
		// blocks — the §11 deadlock cannot happen with this ordering.
		if super := cf.SuperClassName(); !defined[super] {
			return fmt.Errorf("ordering violated: %s arrived before its superclass %s",
				cf.ThisClassName(), super)
		}
		defined[cf.ThisClassName()] = true
		loaded = append(loaded, cf)
		fmt.Printf("  defined %-14s (%d classes resident)\n", cf.ThisClassName(), len(loaded))
		return nil
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nall classes resident; starting the program:")
	interp := minijava.NewInterp(os.Stdout, loaded)
	if err := interp.RunMain("Main"); err != nil {
		log.Fatal(err)
	}
}
