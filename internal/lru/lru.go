// Package lru is a bounded least-recently-used map. It is unsynchronized:
// every caller guards its Cache with its own lock, which lets the service
// cache share one mutex with its singleflight table.
package lru

import "container/list"

// Cache holds at most max entries; adding past the bound evicts the least
// recently used one.
type Cache[K comparable, V any] struct {
	max   int
	order list.List // front = most recent; values are *item[K, V]
	items map[K]*list.Element
}

type item[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to max entries (max < 1 keeps 1).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	return &Cache[K, V]{max: max, items: make(map[K]*list.Element)}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*item[K, V]).val, true
}

// Add stores val under key unless key is already present, in which case the
// existing value is kept (two concurrent misses on one key: the first result
// wins) and only its recency is refreshed. It evicts from the cold end until
// the bound holds.
func (c *Cache[K, V]) Add(key K, val V) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&item[K, V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*item[K, V]).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }
