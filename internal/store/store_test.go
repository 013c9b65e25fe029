package store

import (
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put("a", StringValue("hello"))
	v, ok := s.Get("a")
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if !s.Delete("a") {
		t.Fatal("Delete of existing key returned false")
	}
	if s.Delete("a") {
		t.Fatal("Delete of absent key returned true")
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still readable")
	}
}

func TestVersionsMonotonic(t *testing.T) {
	s := New()
	v1 := s.Put("a", StringValue("1"))
	v2 := s.Put("b", StringValue("2"))
	v3 := s.Put("a", StringValue("3"))
	if !(v1 < v2 && v2 < v3) {
		t.Errorf("versions not monotonic: %d %d %d", v1, v2, v3)
	}
	if s.Version("a") != v3 {
		t.Errorf("Version(a) = %d, want %d", s.Version("a"), v3)
	}
	if s.Version("missing") != 0 {
		t.Error("absent key must have version 0")
	}
}

func TestValueIsolation(t *testing.T) {
	s := New()
	buf := StringValue("abc")
	s.Put("k", buf)
	buf[0] = 'X' // mutating the caller's slice must not affect the store
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", v)
	}
	v[0] = 'Y' // mutating a read result must not affect the store
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatalf("read result aliased store: %q", v2)
	}
}

func TestKeysPrefix(t *testing.T) {
	s := New()
	s.Put("user:1", nil)
	s.Put("user:2", nil)
	s.Put("item:1", nil)
	got := s.Keys("user:")
	if len(got) != 2 || got[0] != "user:1" || got[1] != "user:2" {
		t.Errorf("Keys = %v", got)
	}
	if n := len(s.Keys("")); n != 3 {
		t.Errorf("all keys = %d, want 3", n)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	s.Put("a", StringValue("1"))
	s.Put("b", StringValue("2"))
	snap := s.Snapshot()
	s.Put("a", StringValue("overwritten"))
	s.Delete("b")
	s.Put("c", StringValue("3"))
	s.Restore(snap)
	if v, _ := s.Get("a"); string(v) != "1" {
		t.Errorf("a = %q after restore", v)
	}
	if _, ok := s.Get("c"); ok {
		t.Error("c survived restore")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestStats(t *testing.T) {
	s := New()
	s.Put("a", nil)
	s.Get("a")
	s.Get("b")
	s.Delete("a")
	r, w, d := s.Stats()
	if r != 2 || w != 1 || d != 1 {
		t.Errorf("Stats = %d %d %d", r, w, d)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := "k" + strconv.Itoa(j%17)
				s.Put(k, Int64Value(int64(i*1000+j)))
				s.Get(k)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 17 {
		t.Errorf("Len = %d, want 17", s.Len())
	}
}

func TestInt64Codec(t *testing.T) {
	f := func(v int64) bool {
		return AsInt64(Int64Value(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if AsInt64(nil) != 0 || AsInt64(StringValue("xx")) != 0 {
		t.Error("malformed values must decode to 0")
	}
}

func TestItoaKey(t *testing.T) {
	if k := ItoaKey("bldg", 42); k != "bldg:42" {
		t.Errorf("ItoaKey = %q", k)
	}
}

// A prefix's first draw interns only the key drawn, not its whole table,
// and a repeat draw of a built key allocates nothing.
func TestItoaKeyInternsOnFirstDraw(t *testing.T) {
	const prefix = "fresh-prefix"
	if k := ItoaKey(prefix, 700); k != prefix+":700" {
		t.Fatalf("ItoaKey = %q", k)
	}
	keyCacheMu.RLock()
	built := 0
	for _, s := range keyCache[prefix] {
		if s != "" {
			built++
		}
	}
	keyCacheMu.RUnlock()
	if built != 1 {
		t.Errorf("first draw built %d keys of the prefix, want 1", built)
	}
	if n := testing.AllocsPerRun(100, func() { ItoaKey(prefix, 700) }); n != 0 {
		t.Errorf("repeat draw allocates %v times, want 0", n)
	}
}
