// Package castore implements the content-addressed on-disk cache behind
// jpackd: packed archives keyed by the SHA-256 of their input (plus the
// pack-option fingerprint), stored one file per object under a two-level
// fan-out directory, with an LRU byte cap.
//
// Writes are crash-safe: each object lands in a temp file in its final
// directory, is fsynced, and is renamed into place with a directory
// fsync after the rename, so a reader never observes a partially
// written object and a completed Put survives power loss. The
// in-memory index is rebuilt from the directory on Open (recency
// approximated by mtime), so the cache survives daemon restarts; Open
// also sweeps orphaned temp files older than a staleness bound, and
// Fsck performs the thorough startup recovery: every temp file removed,
// every object re-verified against its sealed digest, index rebuilt.
//
// The store is self-healing: every object carries an integrity trailer
// (SHA-256 over key and payload plus a magic), Get verifies it on every
// read and turns damage into an eviction plus a cache miss, and the Open
// rebuild never trusts file names — structurally invalid files are
// dropped immediately and renamed or bit-rotted objects fail the hash on
// first Get. A corrupted cache therefore costs a re-encode, never a
// wrong answer.
package castore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"classpack/internal/vfs"
)

// FS and File alias the internal/vfs interfaces so callers configure
// fault-injecting filesystems through the castore API without importing
// vfs themselves.
type (
	FS   = vfs.FS
	File = vfs.File
)

// OSFS returns the real-filesystem implementation of FS.
func OSFS() FS { return vfs.OS() }

// Object files are payload ‖ sha256(key ‖ payload) ‖ trailerMagic.
// Binding the key into the hash means a file renamed to another key —
// the failure the rebuild-from-directory path would otherwise trust —
// fails verification just like flipped payload bits.
const trailerMagic = "CAS1"

// trailerSize is the on-disk overhead of the integrity trailer.
const trailerSize = sha256.Size + len(trailerMagic)

// seal appends the integrity trailer for key to payload.
func seal(key string, payload []byte) []byte {
	h := sha256.New()
	io.WriteString(h, key)
	h.Write(payload)
	out := make([]byte, 0, len(payload)+trailerSize)
	out = append(out, payload...)
	out = append(out, h.Sum(nil)...)
	return append(out, trailerMagic...)
}

// unseal verifies raw as a sealed object for key and returns its
// payload. ok is false on any mismatch: too short, wrong magic, or a
// hash that does not match the key and payload.
func unseal(key string, raw []byte) (payload []byte, ok bool) {
	if len(raw) < trailerSize || string(raw[len(raw)-len(trailerMagic):]) != trailerMagic {
		return nil, false
	}
	payload = raw[:len(raw)-trailerSize]
	want := raw[len(payload) : len(payload)+sha256.Size]
	h := sha256.New()
	io.WriteString(h, key)
	h.Write(payload)
	if !bytes.Equal(h.Sum(nil), want) {
		return nil, false
	}
	return payload, true
}

// sealedShape reports whether the file at path is structurally a sealed
// object: big enough for a trailer and ending in the magic. The hash is
// deliberately not checked here — Open calls this for every file, and
// the full verification happens lazily on first Get, which catches what
// a shape check cannot (bit rot, renamed objects).
func sealedShape(path string, size int64) bool {
	if size < int64(trailerSize) {
		return false
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [len(trailerMagic)]byte
	if _, err := f.ReadAt(magic[:], size-int64(len(trailerMagic))); err != nil {
		return false
	}
	return string(magic[:]) == trailerMagic
}

// Key returns the store key for the given byte sections: the hex SHA-256
// of their concatenation, each section prefixed by its length so that
// section boundaries are unambiguous ("ab"+"c" never collides with
// "a"+"bc").
func Key(sections ...[]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, s := range sections {
		n := len(s)
		for i := 7; i >= 0; i-- {
			lenBuf[i] = byte(n)
			n >>= 8
		}
		h.Write(lenBuf[:])
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether k is a well-formed store key (64 lowercase
// hex digits). Handlers use it to reject malformed digests before
// touching the filesystem.
func ValidKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// staleTempAge bounds how old an orphaned temp file must be before the
// Open scan deletes it. The bound exists because Open may race another
// store instance sharing the directory whose Put is mid-flight; a temp
// file this old belongs to no live write. Fsck, which asserts exclusive
// ownership, removes temp files regardless of age.
const staleTempAge = time.Hour

// isTempName reports whether name is one of the store's own scratch
// files: Put temp files ("put-*") and write probes ("probe-*").
func isTempName(name string) bool {
	return strings.HasPrefix(name, "put-") || strings.HasPrefix(name, "probe-")
}

type entry struct {
	key  string
	size int64
}

// Store is a size-capped content-addressed object cache. All methods are
// safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	fs       FS

	mu    sync.Mutex
	index map[string]*list.Element // key -> element whose Value is *entry
	lru   *list.List               // front = most recently used
	size  int64
}

// Open creates (if needed) and indexes a store rooted at dir. maxBytes
// caps the total object bytes; 0 or negative means unlimited. Existing
// objects are re-indexed with recency approximated by file mtime, so a
// reopened cache evicts in roughly the same order it would have before
// the restart. Orphaned temp files older than staleTempAge — debris of
// a write interrupted long ago — are deleted during the scan.
func Open(dir string, maxBytes int64) (*Store, error) {
	return OpenFS(dir, maxBytes, OSFS())
}

// OpenFS is Open with an explicit filesystem for the store's write
// path, the seam the fault drills script crash points and disk faults
// through. Production callers use Open.
func OpenFS(dir string, maxBytes int64, fsys FS) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		fs:       fsys,
		index:    make(map[string]*list.Element),
		lru:      list.New(),
	}
	type found struct {
		entry
		mtime int64
	}
	var objs []found
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		key := d.Name()
		if !ValidKey(key) {
			if isTempName(key) {
				if info, ierr := d.Info(); ierr == nil && time.Since(info.ModTime()) > staleTempAge {
					s.fs.Remove(path)
				}
			}
			return nil // fresh temp file or foreign junk; leave it alone
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent delete
		}
		// A valid-key name proves nothing about the content: drop files
		// that are not even shaped like sealed objects (truncated writes,
		// pre-trailer legacy objects) instead of indexing them. Hash
		// verification happens on first Get.
		if !sealedShape(path, info.Size()) {
			s.fs.Remove(path)
			return nil
		}
		objs = append(objs, found{entry{key, info.Size()}, info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Oldest first, so the most recent object ends up at the LRU front.
	sort.Slice(objs, func(a, b int) bool { return objs[a].mtime < objs[b].mtime })
	for i := range objs {
		e := objs[i].entry
		s.index[e.key] = s.lru.PushFront(&entry{e.key, e.size})
		s.size += e.size
	}
	s.evictLocked()
	return s, nil
}

// path returns the object path: dir/ab/abcdef... The two-character
// fan-out keeps directories small for large caches.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Put stores data under key, overwriting any existing object, and evicts
// least-recently-used objects if the cap is exceeded. The newly written
// object is never evicted by its own Put, even when it alone exceeds the
// cap — the caller already has the bytes, and serving them is the point.
// The object is written with an integrity trailer that Get verifies.
//
// The write is durable as well as atomic: the temp file is fsynced
// before the rename (so the rename can never expose an empty or partial
// object after power loss) and the containing directory is fsynced
// after it (so the rename itself survives a crash). A process death at
// any point loses at most this one object, never a previously sealed
// one.
func (s *Store) Put(key string, data []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("castore: invalid key %q", key)
	}
	objDir := filepath.Join(s.dir, key[:2])
	if err := s.fs.MkdirAll(objDir, 0o755); err != nil {
		return err
	}
	sealed := seal(key, data)
	// Temp file in the final directory so the rename is atomic (same
	// filesystem) and a crash leaves only a "put-*" file that Open and
	// Fsck sweep.
	tmp, err := s.fs.CreateTemp(objDir, "put-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(sealed); err != nil {
		tmp.Close()
		s.fs.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		s.fs.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmpName)
		return err
	}
	if err := s.fs.Chmod(tmpName, 0o644); err != nil {
		s.fs.Remove(tmpName)
		return err
	}
	if err := s.fs.Rename(tmpName, s.path(key)); err != nil {
		s.fs.Remove(tmpName)
		return err
	}
	if err := s.fs.SyncDir(objDir); err != nil {
		// The object is in place and readable, but its durability is
		// uncertain; report the fault without indexing it. The file stays
		// on disk — a later Open or Fsck indexes it if it survived.
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		s.size -= el.Value.(*entry).size
		s.lru.Remove(el)
	}
	s.index[key] = s.lru.PushFront(&entry{key, int64(len(sealed))})
	s.size += int64(len(sealed))
	s.evictLocked()
	return nil
}

// Get returns the object stored under key and marks it most recently
// used. ok is false when the key is absent (or its file vanished out
// from under the index, in which case the index entry is dropped).
// Every read verifies the object's integrity trailer; a mismatch —
// flipped bits, truncation, a file renamed under a different key —
// evicts the object and reports a plain miss, so callers simply
// re-encode instead of serving damaged bytes.
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	s.mu.Lock()
	el, found := s.index[key]
	if found {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !found {
		return nil, false, nil
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			s.forget(key)
			return nil, false, nil
		}
		return nil, false, err
	}
	payload, ok := unseal(key, raw)
	if !ok {
		s.fs.Remove(s.path(key))
		s.forget(key)
		return nil, false, nil
	}
	return payload, true, nil
}

// Touch reports whether key is in the index and, if so, marks it most
// recently used, as Get would, but without reading or verifying its
// file. A caller that keeps what it read by Get in memory asks Touch
// whether the store still holds it: once the object is evicted, or
// forgotten because its file vanished, Touch reports false.
func (s *Store) Touch(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if ok {
		s.lru.MoveToFront(el)
	}
	return ok
}

// Probe checks that the store's volume currently accepts durable
// writes: it creates, writes, fsyncs, and removes a scratch file in the
// store root. The degraded-mode recovery loop in jpackd calls it to
// decide when a full or failing disk has come back.
func (s *Store) Probe() error {
	f, err := s.fs.CreateTemp(s.dir, "probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("castore write probe"))
	serr := f.Sync()
	cerr := f.Close()
	rerr := s.fs.Remove(name)
	for _, err := range []error{werr, serr, cerr, rerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// forget drops a key from the index without touching the filesystem
// (used when the backing file was deleted externally).
func (s *Store) forget(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		s.size -= el.Value.(*entry).size
		s.lru.Remove(el)
		delete(s.index, key)
	}
}

// evictLocked removes least-recently-used objects until the store fits
// the cap, always leaving at least one (the most recent) object.
// s.mu must be held.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.size > s.maxBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.index, e.key)
		s.size -= e.size
		s.fs.Remove(s.path(e.key))
	}
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len reports the number of cached objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Size reports the total bytes of cached objects.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}
