// Package lockdiscipline exercises the lockdiscipline analyzer:
// re-entering the receiver's own lock and returning guarded slices
// from under it are flagged; copy-before-return and unlock-first call
// sequences are not.
package lockdiscipline

import "sync"

// Registry is a mutex-holding type: guarded state behind an RWMutex.
type Registry struct {
	mu    sync.RWMutex
	items map[string]int
	order []string
}

func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.items)
}

func (r *Registry) LeakedSnapshot() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.order // want lockdiscipline "returns internal field order while holding the lock"
}

func (r *Registry) CopiedSnapshot() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out // copies leave the guarded slice behind: clean
}

func (r *Registry) Reentrant() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.Len() // want lockdiscipline "calls Len while holding the receiver's lock"
}

func (r *Registry) UnlockFirst() int {
	r.mu.RLock()
	n := len(r.items)
	r.mu.RUnlock()
	return n + r.Len() // lock already released: clean
}

// locked assumes the caller holds the lock and does not acquire it.
func (r *Registry) locked() int { return len(r.items) }

func (r *Registry) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.locked() // callee never locks: clean
}

func (r *Registry) UnguardedReturn() []string {
	return r.order // no lock held on this path: not the analyzer's concern
}
