package server

import "sync"

// s3fifoCache is the server's query cache: the S3-FIFO admission policy
// (Yang et al., "FIFO queues are all you need for cache eviction", SOSP
// 2023) over shards picked by hashing the packed pair, so hot vertices
// spread across shard locks. It caches positive and negative answers
// alike: the oracle is immutable, so entries never go stale and
// eviction exists only to bound memory. Each shard splits its capacity
// into a small probationary FIFO (~10%) and a main FIFO (~90%), plus a
// ghost set that remembers keys recently evicted from the small queue:
//
//   - a new key enters the small queue — unless the ghost set remembers
//     it, in which case it goes straight to main (its quick return is
//     the evidence it belongs there);
//   - eviction from small promotes entries that were hit at least once
//     and demotes the rest to the ghost set, so one-hit wonders never
//     displace the main queue;
//   - eviction from main gives entries with hits a second chance
//     (reinsert with the counter decremented) before dropping them.
//
// All state is per shard under the shard mutex; the hot path cost over
// a plain FIFO is one uint8 frequency bump.
type s3fifoCache struct {
	shards []s3fifoShard
	mask   uint32
}

// s3freqMax caps the per-entry access counter; 3 is the paper's choice
// and bounds main-queue second chances.
const s3freqMax = 3

type s3entry struct {
	answer bool
	freq   uint8
}

type s3fifoShard struct {
	mu sync.Mutex
	// m holds live entries (small or main) by value: a 2-byte s3entry in
	// a flat map costs no per-entry allocation and nothing for the GC to
	// chase — at the default 1<<20 capacity a pointer map would mean a
	// million tiny heap objects. All mutation happens under mu, so
	// freq/answer updates just re-store the value.
	m     map[uint64]s3entry
	small keyRing
	main  keyRing
	// ghost maps remembered evictions to the sequence number of their
	// newest ring slot; ghostFIFO bounds the memory in insertion order.
	// A key's set entry can outlive resurrection-and-re-eviction cycles,
	// leaving stale older slots in the ring — the stored sequence lets
	// eviction tell a stale slot from the live one, so popping a stale
	// slot never erases a fresher memory of the same key.
	ghost     map[uint64]uint64
	ghostFIFO keyRing
	ghostSeqs keyRing // parallel to ghostFIFO: slot sequence numbers
	ghostSeq  uint64
	smallCap  int
	mainCap   int
	// hit/miss counters live per shard, inside the padded struct and
	// bumped under the shard mutex, so the hot path never touches a
	// cache line shared across shards.
	hits, misses int64
	// pad the shard to its own cache lines so neighboring locks don't
	// false-share.
	_ [64]byte
}

// keyRing is a fixed-capacity FIFO of packed pair keys. Callers never
// push into a full ring: every push is preceded by an eviction that
// frees a slot.
type keyRing struct {
	buf  []uint64
	head int
	n    int
}

func newKeyRing(capacity int) keyRing { return keyRing{buf: make([]uint64, capacity)} }

func (r *keyRing) push(k uint64) {
	r.buf[(r.head+r.n)%len(r.buf)] = k
	r.n++
}

func (r *keyRing) pop() uint64 {
	k := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return k
}

func newS3FIFOCache(shards, capacity int) *s3fifoCache {
	pow, caps := shardLayout(shards, capacity)
	c := &s3fifoCache{shards: make([]s3fifoShard, pow), mask: uint32(pow - 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		// ~10% probationary queue, at least one slot; the rest is main.
		// A one-entry shard has no main queue — everything lives and
		// dies in small, with the ghost set still granting no admission
		// benefit (mainCap 0 disables resurrection).
		sh.smallCap = caps[i] / 10
		if sh.smallCap == 0 {
			sh.smallCap = 1
		}
		sh.mainCap = caps[i] - sh.smallCap
		if sh.mainCap < 0 {
			sh.mainCap = 0
		}
		ghostCap := sh.mainCap
		if ghostCap == 0 {
			ghostCap = 1
		}
		// Sized lazily, NOT pre-sized to capacity: a capacity hint
		// spreads a small working set over a worst-case table (~10 MiB
		// across shards at the defaults), turning every hit into a DRAM
		// stall — profiled at ~23% of the batch hot path. Growing on
		// demand keeps small working sets cache-resident and costs only
		// amortized incremental rehashes on the fill path.
		sh.m = make(map[uint64]s3entry)
		sh.small = newKeyRing(sh.smallCap)
		sh.main = newKeyRing(sh.mainCap)
		sh.ghost = make(map[uint64]uint64)
		sh.ghostFIFO = newKeyRing(ghostCap)
		sh.ghostSeqs = newKeyRing(ghostCap)
	}
	return c
}

//reach:hotpath
func (c *s3fifoCache) get(u, v uint32) (answer, ok bool) {
	k := pairKey(u, v)
	sh := &c.shards[shardIndex(k, c.mask)]
	sh.mu.Lock()
	e, ok := sh.m[k]
	if ok {
		if e.freq < s3freqMax {
			e.freq++
			sh.m[k] = e
		}
		sh.hits++
		answer = e.answer
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	return answer, ok
}

func (c *s3fifoCache) put(u, v uint32, answer bool) {
	k := pairKey(u, v)
	sh := &c.shards[shardIndex(k, c.mask)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[k]; ok {
		// Concurrent misses can race to put the same pair; the oracle is
		// immutable so the answers agree and no queue movement is needed.
		e.answer = answer
		sh.m[k] = e
		return
	}
	if _, ghosted := sh.ghost[k]; ghosted && sh.mainCap > 0 {
		delete(sh.ghost, k)
		if sh.main.n >= sh.mainCap {
			sh.evictMain()
		}
		sh.main.push(k)
	} else {
		if sh.small.n >= sh.smallCap {
			sh.evictSmall()
		}
		sh.small.push(k)
	}
	sh.m[k] = s3entry{answer: answer}
}

// evictSmall pops the oldest small-queue entry, promoting it to main if
// it was hit while probationary and otherwise dropping it to the ghost
// set. Always frees exactly one small slot.
func (sh *s3fifoShard) evictSmall() {
	k := sh.small.pop()
	e := sh.m[k]
	if e.freq > 0 && sh.mainCap > 0 {
		if sh.main.n >= sh.mainCap {
			sh.evictMain()
		}
		e.freq = 0 // main residency restarts the clock
		sh.m[k] = e
		sh.main.push(k)
		return
	}
	delete(sh.m, k)
	sh.ghostAdd(k)
}

// evictMain drops the oldest main-queue entry without hits, giving hit
// entries a second chance (decrement and reinsert). Terminates because
// every pass over a surviving entry decrements its bounded counter.
func (sh *s3fifoShard) evictMain() {
	for sh.main.n > 0 {
		k := sh.main.pop()
		e := sh.m[k]
		if e.freq > 0 {
			e.freq--
			sh.m[k] = e
			sh.main.push(k)
			continue
		}
		delete(sh.m, k)
		return
	}
}

// ghostAdd remembers an eviction, aging out the oldest slot once the
// ghost ring is full. The set entry stores the slot's sequence number,
// so a popped slot only erases the memory it created — a stale slot
// (the key was resurrected, or re-remembered under a newer slot) ages
// out without touching the live entry.
func (sh *s3fifoShard) ghostAdd(k uint64) {
	if sh.ghostFIFO.n >= len(sh.ghostFIFO.buf) {
		oldK, oldSeq := sh.ghostFIFO.pop(), sh.ghostSeqs.pop()
		if sh.ghost[oldK] == oldSeq {
			delete(sh.ghost, oldK)
		}
	}
	sh.ghostSeq++
	sh.ghostFIFO.push(k)
	sh.ghostSeqs.push(sh.ghostSeq)
	sh.ghost[k] = sh.ghostSeq
}

func (c *s3fifoCache) stats() CacheStats {
	s := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Capacity += sh.smallCap + sh.mainCap
		s.Entries += len(sh.m)
		s.Small += sh.small.n
		s.Main += sh.main.n
		s.Ghost += len(sh.ghost)
		s.Hits += sh.hits
		s.Misses += sh.misses
		sh.mu.Unlock()
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
