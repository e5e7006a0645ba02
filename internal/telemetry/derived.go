package telemetry

import "sync"

// A Dataset never changes, so any value computed from it alone is as
// good on the thousandth asking as on the first. derivedTable is where
// such values are kept: one slot per key, filled by whoever asks first,
// handed to everyone after. It belongs to the Dataset it describes —
// Merge returns a fresh Dataset with an empty table, so nothing is ever
// invalidated and a retired generation's values are collected with it.

// maxClientDerived caps the slots DerivedCapped may fill on one
// Dataset. Its keys come from outside the program (a query's window
// start and length), so without the cap a client could grow a published
// generation one distinct parameter at a time.
const maxClientDerived = 64

// Derivation says how a derived value was obtained.
type Derivation int

const (
	// DerivedMiss: this call computed the value and filled the slot.
	DerivedMiss Derivation = iota
	// DerivedHit: the slot was already filled, or another caller was
	// filling it and this one waited for the same value.
	DerivedHit
	// DerivedUncached: the capped part of the table was full; the value
	// was computed for this call alone.
	DerivedUncached
)

type derivedSlot struct {
	once sync.Once
	v    any
}

type derivedTable struct {
	mu     sync.Mutex
	slots  map[any]*derivedSlot
	client int // slots taken through DerivedCapped, at most maxClientDerived
}

// Derived returns the value compute yields for key, running compute at
// most once per key for the life of the dataset: callers that arrive
// while the first is still computing wait for its result. The value is
// shared between all of them and must be treated as read-only. compute
// must depend on nothing but the dataset and the key.
//
// key must be comparable, and should be of an unexported type of the
// calling package so that no two packages can collide. The set of keys
// a program can present must be small and closed; a key taken from a
// request goes through DerivedCapped.
func (d *Dataset) Derived(key any, compute func() any) (any, Derivation) {
	return d.derive(key, false, compute)
}

// DerivedCapped is Derived for keys a client chooses. A fixed number of
// such keys get a slot; past that, compute runs for the caller alone
// and nothing is kept, so the table's size is bounded whatever is
// asked. Keys presented through Derived are never displaced or refused
// on its account.
func (d *Dataset) DerivedCapped(key any, compute func() any) (any, Derivation) {
	return d.derive(key, true, compute)
}

func (d *Dataset) derive(key any, capped bool, compute func() any) (any, Derivation) {
	t := &d.derived
	t.mu.Lock()
	slot := t.slots[key]
	if slot == nil {
		if capped && t.client == maxClientDerived {
			t.mu.Unlock()
			return compute(), DerivedUncached
		}
		if capped {
			t.client++
		}
		if t.slots == nil {
			t.slots = make(map[any]*derivedSlot)
		}
		slot = new(derivedSlot)
		t.slots[key] = slot
	}
	t.mu.Unlock()
	// compute runs outside the table lock: a slow first scan of one key
	// delays only callers of that key.
	how := DerivedHit
	slot.once.Do(func() {
		slot.v = compute()
		how = DerivedMiss
	})
	return slot.v, how
}
