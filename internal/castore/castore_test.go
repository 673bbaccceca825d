package castore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKeySectionBoundaries(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("section boundaries do not affect the key")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("key is not deterministic")
	}
	if !ValidKey(Key([]byte("x"))) {
		t.Fatal("Key output is not a ValidKey")
	}
}

func TestValidKey(t *testing.T) {
	for _, bad := range []string{"", "ab", strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("a", 63)} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
	if !ValidKey(strings.Repeat("0a", 32)) {
		t.Error("valid key rejected")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("packed bytes")
	key := Key(data)
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %q, want %q", got, data)
	}
	if _, ok, _ := s.Get(Key([]byte("absent"))); ok {
		t.Fatal("Get of absent key reported ok")
	}
	if want := int64(len(data) + trailerSize); s.Len() != 1 || s.Size() != want {
		t.Fatalf("Len/Size = %d/%d, want 1/%d", s.Len(), s.Size(), want)
	}
}

func TestPutRejectsInvalidKey(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("nothex", []byte("x")); err == nil {
		t.Fatal("invalid key accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	// Cap sized (in sealed-object bytes) to hold two 10-byte payloads but
	// not three.
	s, err := Open(t.TempDir(), int64(2*(10+trailerSize))+5)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3)
	for i := range keys {
		data := bytes.Repeat([]byte{byte('a' + i)}, 10)
		keys[i] = Key(data)
		if err := s.Put(keys[i], data); err != nil {
			t.Fatal(err)
		}
	}
	// Three objects exceed the cap: the oldest (keys[0]) must be gone.
	if _, ok, _ := s.Get(keys[0]); ok {
		t.Fatal("oldest object survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok, _ := s.Get(k); !ok {
			t.Fatalf("recent object %s evicted", k[:8])
		}
	}
	// Touch keys[1] so keys[2] becomes the eviction candidate.
	if _, _, err := s.Get(keys[1]); err != nil {
		t.Fatal(err)
	}
	d4 := bytes.Repeat([]byte{'z'}, 10)
	if err := s.Put(Key(d4), d4); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(keys[2]); ok {
		t.Fatal("LRU order ignored: untouched object survived over touched one")
	}
	if _, ok, _ := s.Get(keys[1]); !ok {
		t.Fatal("recently touched object evicted")
	}
}

// TestTouchMarksRecentUse checks that Touch answers from the index
// alone, counts as a use for LRU eviction, and reports false once the
// object is evicted or its vanished file has been forgotten.
func TestTouchMarksRecentUse(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, int64(2*(10+trailerSize))+5)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3)
	for i := range keys[:2] {
		data := bytes.Repeat([]byte{byte('a' + i)}, 10)
		keys[i] = Key(data)
		if err := s.Put(keys[i], data); err != nil {
			t.Fatal(err)
		}
	}
	// Removing keys[0]'s file leaves the index alone: Touch reads no file.
	if err := os.Remove(filepath.Join(dir, keys[0][:2], keys[0])); err != nil {
		t.Fatal(err)
	}
	if !s.Touch(keys[0]) {
		t.Fatal("Touch of an indexed object reported false")
	}
	// keys[0] is now the most recent, so the next Put evicts keys[1].
	d := bytes.Repeat([]byte{'c'}, 10)
	keys[2] = Key(d)
	if err := s.Put(keys[2], d); err != nil {
		t.Fatal(err)
	}
	if s.Touch(keys[1]) {
		t.Fatal("Touch of an evicted object reported true")
	}
	if _, ok, err := s.Get(keys[0]); ok || err != nil {
		t.Fatalf("Get of the removed file: ok=%v err=%v", ok, err)
	}
	if s.Touch(keys[0]) {
		t.Fatal("Touch of a forgotten object reported true")
	}
	if !s.Touch(keys[2]) || s.Touch(Key([]byte("absent"))) {
		t.Fatal("Touch disagrees with the index")
	}
}

func TestOversizeObjectIsKept(t *testing.T) {
	s, err := Open(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{'b'}, 50)
	if err := s.Put(Key(big), big); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(Key(big)); !ok {
		t.Fatal("object larger than the cap was evicted by its own Put")
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("object %d", i))
		k := Key(data)
		keys = append(keys, k)
		if err := s.Put(k, data); err != nil {
			t.Fatal(err)
		}
		// mtime granularity on some filesystems is coarse; space the
		// writes so reopen sees distinct recency.
		now := time.Now()
		os.Chtimes(filepath.Join(dir, k[:2], k), now, now.Add(time.Duration(i)*time.Second))
	}
	// A stray temp file must not be indexed.
	if err := os.WriteFile(filepath.Join(dir, keys[0][:2], "put-stray"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("reopened store has %d objects, want 3", s2.Len())
	}
	for i, k := range keys {
		got, ok, err := s2.Get(k)
		if err != nil || !ok {
			t.Fatalf("reopened Get(%s): ok=%v err=%v", k[:8], ok, err)
		}
		if want := fmt.Sprintf("object %d", i); string(got) != want {
			t.Fatalf("reopened Get(%s) = %q, want %q", k[:8], got, want)
		}
	}

	// Reopen with a cap that forces eviction of the two oldest.
	s3, err := Open(dir, int64(len("object 0")))
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 1 {
		t.Fatalf("capped reopen kept %d objects, want 1", s3.Len())
	}
	if _, ok, _ := s3.Get(keys[2]); !ok {
		t.Fatal("capped reopen evicted the most recent object")
	}
}

func TestGetAfterExternalDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("doomed")
	k := Key(data)
	if err := s.Put(k, data); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, k[:2], k)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("Get of externally deleted object: ok=%v err=%v", ok, err)
	}
	if s.Len() != 0 {
		t.Fatalf("index still holds %d entries after external delete", s.Len())
	}
}

func TestNoPartialObjectsVisible(t *testing.T) {
	// Every file under the store directory with a valid-key name must be
	// a complete object: Put writes to a temp name and renames.
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{'p'}, 1<<16)
	k := Key(data)
	if err := s.Put(k, data); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, k[:2], k))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data)+trailerSize {
		t.Fatalf("on-disk object is %d bytes, want %d payload + %d trailer",
			len(got), len(data), trailerSize)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				data := []byte(fmt.Sprintf("worker %d item %d", g, i%5))
				k := Key(data)
				if err := s.Put(k, data); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get(k)
				if err != nil {
					t.Error(err)
					return
				}
				if ok && !bytes.Equal(got, data) {
					t.Errorf("corrupt read: %q", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
