package cdnsim

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"vmp/internal/dist"
)

func TestOriginPushAndTotal(t *testing.T) {
	o := NewOrigin()
	o.Push("pub1", "c1", map[int]int64{800: 1000, 1600: 2000})
	if got := o.TotalBytes(); got != 3000 {
		t.Fatalf("TotalBytes = %d, want 3000", got)
	}
	// Re-pushing the same rendition replaces it.
	o.Push("pub1", "c1", map[int]int64{800: 1500})
	if got := o.TotalBytes(); got != 3500 {
		t.Fatalf("TotalBytes after replace = %d, want 3500", got)
	}
	if len(o.copies) != 2 {
		t.Fatalf("copies = %d, want 2", len(o.copies))
	}
	// Non-positive sizes are ignored.
	o.Push("pub1", "c1", map[int]int64{400: 0})
	if len(o.copies) != 2 {
		t.Fatal("zero-byte rendition admitted")
	}
}

// TestReserveKeepsStoredCopies: reserving room after pushes keeps every
// copy findable, so a re-push still replaces rather than duplicates,
// and a ladder SortLadder sorted once stores as its map would.
func TestReserveKeepsStoredCopies(t *testing.T) {
	ladder := map[int]int64{1600: 2000, 800: 1000, 400: 0}
	o := NewOrigin()
	o.Push("pub1", "c1", ladder)
	o.Reserve(100)
	o.PushLadder("pub1", "c1", SortLadder(map[int]int64{800: 1500}))
	o.PushLadder("pub2", "c1", SortLadder(ladder))
	want := []RenditionCopy{
		{Publisher: "pub1", ContentID: "c1", BitrateKbps: 800, Bytes: 1500},
		{Publisher: "pub1", ContentID: "c1", BitrateKbps: 1600, Bytes: 2000},
		{Publisher: "pub2", ContentID: "c1", BitrateKbps: 800, Bytes: 1000},
		{Publisher: "pub2", ContentID: "c1", BitrateKbps: 1600, Bytes: 2000},
	}
	if fmt.Sprint(o.copies) != fmt.Sprint(want) || o.TotalBytes() != 6500 {
		t.Fatalf("copies %v (%d bytes), want %v (6500 bytes)", o.copies, o.TotalBytes(), want)
	}
}

func TestDedupExactMatch(t *testing.T) {
	o := NewOrigin()
	// Two publishers store the same title at an identical bitrate.
	o.Push("owner", "c1", map[int]int64{800: 1000})
	o.Push("synd", "c1", map[int]int64{800: 900})
	if got := o.DedupSavings(0); got != 900 {
		t.Fatalf("exact dedup = %d, want 900 (the smaller copy)", got)
	}
	// Different content must never merge.
	o2 := NewOrigin()
	o2.Push("owner", "c1", map[int]int64{800: 1000})
	o2.Push("synd", "c2", map[int]int64{800: 900})
	if got := o2.DedupSavings(0.10); got != 0 {
		t.Fatalf("cross-content dedup = %d, want 0", got)
	}
}

func TestDedupTolerance(t *testing.T) {
	o := NewOrigin()
	o.Push("owner", "c1", map[int]int64{1000: 1000})
	o.Push("synd", "c1", map[int]int64{1040: 900})  // within 5%
	o.Push("synd2", "c1", map[int]int64{1200: 800}) // within 10% of 1100? 1200/1040=1.15 of rep
	if got := o.DedupSavings(0); got != 0 {
		t.Fatalf("exact dedup merged unequal bitrates: %d", got)
	}
	if got := o.DedupSavings(0.05); got != 900 {
		t.Fatalf("5%% dedup = %d, want 900", got)
	}
	// At 25% tolerance all three cluster together.
	if got := o.DedupSavings(0.25); got != 900+800 {
		t.Fatalf("25%% dedup = %d, want 1700", got)
	}
	// Negative tolerance clamps to exact.
	if got := o.DedupSavings(-1); got != 0 {
		t.Fatalf("negative tolerance = %d, want 0", got)
	}
}

func TestDedupMonotoneInTolerance(t *testing.T) {
	src := dist.NewSource(3)
	o := NewOrigin()
	for p := 0; p < 5; p++ {
		ladder := map[int]int64{}
		for r := 0; r < 8; r++ {
			kbps := int(src.Uniform(150, 8000))
			ladder[kbps] = int64(kbps) * 1000
		}
		o.Push(fmt.Sprintf("pub%d", p), "c1", ladder)
	}
	prev := int64(-1)
	for _, tol := range []float64{0, 0.02, 0.05, 0.10, 0.20, 0.50} {
		s := o.DedupSavings(tol)
		if s < prev {
			t.Fatalf("savings not monotone: tol %v gave %d < %d", tol, s, prev)
		}
		if s > o.TotalBytes() {
			t.Fatalf("savings %d exceed stored bytes %d", s, o.TotalBytes())
		}
		prev = s
	}
}

func TestDedupKeepsLargerCopy(t *testing.T) {
	// The higher-quality (larger) copy must be the survivor.
	o := NewOrigin()
	o.Push("a", "c1", map[int]int64{1000: 500})
	o.Push("b", "c1", map[int]int64{1000: 2000})
	if got := o.DedupSavings(0); got != 500 {
		t.Fatalf("dedup reclaimed %d, want 500 (keep the 2000-byte copy)", got)
	}
}

func TestIntegratedSavings(t *testing.T) {
	o := NewOrigin()
	o.Push("owner", "c1", map[int]int64{800: 1000, 1600: 2000})
	o.Push("s1", "c1", map[int]int64{750: 900})
	o.Push("s2", "c1", map[int]int64{820: 950, 1700: 1800})
	owners := map[string]string{"c1": "owner"}
	if got := o.IntegratedSavings(owners); got != 900+950+1800 {
		t.Fatalf("integrated savings = %d, want 3650", got)
	}
	// Unknown ownership: nothing reclaimed.
	if got := o.IntegratedSavings(map[string]string{}); got != 0 {
		t.Fatalf("unowned content reclaimed %d bytes", got)
	}
}

func TestIntegratedBeatsToleranceDedup(t *testing.T) {
	// Fig 18's ordering: integrated ≥ 10% ≥ 5% ≥ exact.
	src := dist.NewSource(5)
	o := NewOrigin()
	owners := map[string]string{}
	for c := 0; c < 10; c++ {
		cid := fmt.Sprintf("c%d", c)
		owners[cid] = "owner"
		o.Push("owner", cid, map[int]int64{800: 8000, 1600: 16000, 3200: 32000})
		for s := 0; s < 2; s++ {
			ladder := map[int]int64{}
			for r := 0; r < 5; r++ {
				kbps := int(src.Uniform(300, 5000))
				ladder[kbps] = int64(kbps) * 10
			}
			o.Push(fmt.Sprintf("synd%d", s), cid, ladder)
		}
	}
	rep := o.Savings(owners)
	if !(rep.Integrated >= rep.Tol10 && rep.Tol10 >= rep.Tol5 && rep.Tol5 >= rep.Exact) {
		t.Fatalf("savings ordering violated: %+v", rep)
	}
	if rep.IntegratedPct <= 0 || rep.IntegratedPct > 100 {
		t.Fatalf("integrated pct %v out of range", rep.IntegratedPct)
	}
}

func TestEdgeCacheLRU(t *testing.T) {
	c := NewEdgeCache(100)
	if c.Serve("a", 40) {
		t.Fatal("first access cannot hit")
	}
	if !c.Serve("a", 40) {
		t.Fatal("second access must hit")
	}
	c.Serve("b", 40)
	// Touch a so b is the LRU victim.
	c.Serve("a", 40)
	c.Serve("c", 40) // evicts b
	if c.entries["b"] != nil {
		t.Fatal("b should have been evicted")
	}
	if c.entries["a"] == nil || c.entries["c"] == nil {
		t.Fatal("a and c should remain")
	}
	if c.used != 80 {
		t.Fatalf("used = %d, want 80", c.used)
	}
}

func TestEdgeCacheOversizeObject(t *testing.T) {
	c := NewEdgeCache(100)
	if c.Serve("huge", 500) {
		t.Fatal("oversize object cannot hit")
	}
	if c.entries["huge"] != nil || c.used != 0 {
		t.Fatal("oversize object must not be admitted")
	}
}

func TestEdgeCacheStats(t *testing.T) {
	c := NewEdgeCache(1000)
	c.Serve("a", 10)
	c.Serve("a", 10)
	c.Serve("b", 10)
	if c.hits != 1 || c.misses != 2 {
		t.Fatalf("stats = %d/%d, want 1/2", c.hits, c.misses)
	}
}

func TestEdgeCachePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive capacity should panic")
		}
	}()
	NewEdgeCache(0)
}

func TestEdgeCacheConcurrency(t *testing.T) {
	c := NewEdgeCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Serve(fmt.Sprintf("k%d", (g*31+i)%100), 1000)
			}
		}(g)
	}
	wg.Wait()
	if c.used > 1<<20 {
		t.Fatal("capacity exceeded under concurrency")
	}
}

func TestRegistryShape(t *testing.T) {
	r := NewRegistry(dist.NewSource(1))
	if len(r.byName) != TotalCDNCount {
		t.Fatalf("registry has %d CDNs, want %d", len(r.byName), TotalCDNCount)
	}
	// Exactly one of the top 3 uses anycast (§4.3).
	anycast := 0
	for _, name := range TopCDNNames[:3] {
		if r.byName[name].Anycast {
			anycast++
		}
	}
	if anycast != 1 {
		t.Fatalf("%d of the top 3 CDNs use anycast, want exactly 1", anycast)
	}
	if _, ok := r.ByName("A"); !ok {
		t.Fatal("ByName(A) missed")
	}
	if _, ok := r.ByName("nope"); ok {
		t.Fatal("ByName resolved a ghost CDN")
	}
}

func TestRegistryDeterminism(t *testing.T) {
	r1 := NewRegistry(dist.NewSource(9))
	r2 := NewRegistry(dist.NewSource(9))
	for name, c := range r1.byName {
		if c.Quality("ISP-X") != r2.byName[name].Quality("ISP-X") {
			t.Fatal("registry quality not deterministic")
		}
	}
}

func TestCDNQualityDefaultsAndClamps(t *testing.T) {
	c := NewCDN("T", false, 1<<20)
	if q := c.Quality("ISP-X"); q != 0.7 {
		t.Fatalf("default quality = %v, want 0.7", q)
	}
	c.SetQuality("ISP-X", -5)
	if q := c.Quality("ISP-X"); q <= 0 {
		t.Fatal("quality must clamp positive")
	}
	c.SetQuality("ISP-X", 99)
	if q := c.Quality("ISP-X"); q > 1.5 {
		t.Fatal("quality must clamp at 1.5")
	}
}

func TestCDNServeChunkPerISPEdges(t *testing.T) {
	c := NewCDN("T", false, 1<<20)
	c.ServeChunk("ISP-X", "u1", 100)
	if c.ServeChunk("ISP-Y", "u1", 100) {
		t.Fatal("edges must be per-ISP: ISP-Y cannot hit ISP-X's cache")
	}
	if !c.ServeChunk("ISP-X", "u1", 100) {
		t.Fatal("second request from same ISP should hit")
	}
}

// Property: dedup savings never exceed total bytes and integrated
// savings never exceed total bytes.
func TestSavingsBoundedProperty(t *testing.T) {
	f := func(seed uint32, nPubs, nRends uint8) bool {
		src := dist.NewSource(uint64(seed))
		o := NewOrigin()
		owners := map[string]string{"c": "pub0"}
		pubs := int(nPubs%5) + 1
		rends := int(nRends%6) + 1
		for p := 0; p < pubs; p++ {
			ladder := map[int]int64{}
			for r := 0; r < rends; r++ {
				kbps := int(src.Uniform(100, 4000))
				ladder[kbps] = int64(src.Uniform(1000, 100000))
			}
			o.Push(fmt.Sprintf("pub%d", p), "c", ladder)
		}
		rep := o.Savings(owners)
		return rep.Exact <= rep.TotalBytes && rep.Tol10 <= rep.TotalBytes &&
			rep.Integrated <= rep.TotalBytes && rep.Exact >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOriginConcurrentPush(t *testing.T) {
	o := NewOrigin()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.Push(fmt.Sprintf("pub%d", g), fmt.Sprintf("c%d", i), map[int]int64{800: 10})
			}
		}(g)
	}
	wg.Wait()
	if got := o.TotalBytes(); got != 8*100*10 {
		t.Fatalf("TotalBytes = %d after concurrent pushes, want 8000", got)
	}
}
