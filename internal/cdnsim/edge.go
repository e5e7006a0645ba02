package cdnsim

import (
	"container/list"
	"sync"
)

// EdgeCache is a byte-capacity LRU cache standing in for one CDN edge
// (POP). Cache misses are served from the origin, which costs the
// client an extra origin round trip; the hit ratio therefore feeds the
// delivery-performance model. It is safe for concurrent use.
type EdgeCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List               // front = most recently used
	entries  map[string]*list.Element // key → element in order
}

type edgeEntry struct {
	key   string
	bytes int64
}

// NewEdgeCache returns an LRU edge cache holding at most capacity
// bytes. It panics on non-positive capacities, which indicate a
// misconfigured simulation rather than bad runtime input.
func NewEdgeCache(capacity int64) *EdgeCache {
	if capacity <= 0 {
		panic("cdnsim: non-positive edge cache capacity")
	}
	return &EdgeCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Serve fetches the object identified by key with the given size,
// returning true on a cache hit. On a miss the object is admitted,
// evicting least-recently-used objects as needed. Objects larger than
// the whole cache are served from origin without admission.
func (c *EdgeCache) Serve(key string, bytes int64) (hit bool) {
	if bytes < 0 {
		bytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return true
	}
	if bytes > c.capacity {
		return false
	}
	for c.used+bytes > c.capacity {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(edgeEntry)
		c.order.Remove(oldest)
		delete(c.entries, ent.key)
		c.used -= ent.bytes
	}
	c.entries[key] = c.order.PushFront(edgeEntry{key: key, bytes: bytes})
	c.used += bytes
	return false
}
