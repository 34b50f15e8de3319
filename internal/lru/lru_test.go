package lru

import "testing"

// TestBound: the cache never holds more than its bound, whatever is added.
func TestBound(t *testing.T) {
	c := New[int, int](32)
	for i := 0; i < 1000; i++ {
		c.Add(i, i)
		if c.Len() > 32 {
			t.Fatalf("after %d adds the cache holds %d entries, bound is 32", i+1, c.Len())
		}
	}
	if c.Len() != 32 {
		t.Fatalf("Len = %d, want 32", c.Len())
	}
	z := New[string, int](0)
	z.Add("a", 1)
	z.Add("b", 2)
	if z.Len() != 1 {
		t.Fatalf("a zero bound must keep one entry, got %d", z.Len())
	}
}

// TestRecency: Get and a repeated Add refresh an entry, so eviction takes
// the least recently used key, not the oldest insertion.
func TestRecency(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b survived although it was least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}

	c.Add("a", 10) // refresh: c is now the cold end
	c.Add("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Error("c survived although a was refreshed after it")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted although it was refreshed")
	}
}

// TestKeepFirst: adding a key that is already present keeps the first
// value, the rule concurrent misses on one key rely on.
func TestKeepFirst(t *testing.T) {
	c := New[string, string](4)
	c.Add("k", "first")
	c.Add("k", "second")
	if v, _ := c.Get("k"); v != "first" {
		t.Fatalf("Get = %q, want the first value", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after a duplicate add, want 1", c.Len())
	}
}
