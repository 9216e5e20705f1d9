package server

// Cache defaults; Config leaves them overridable per daemon.
const (
	// DefaultCacheShards is the shard count (rounded up to a power of
	// two). 64 ways keeps lock contention negligible at the concurrency
	// levels a single reachd serves.
	DefaultCacheShards = 64
	// DefaultCacheCapacity bounds total cached (u,v) answers. At one map
	// entry plus one ring slot per answer this is a few tens of MiB.
	DefaultCacheCapacity = 1 << 20
)

// shardLayout normalizes a (shards, capacity) request: the shard count
// rounds up to a power of two, then shrinks while the capacity is
// smaller than the shard count so the configured capacity stays an upper
// bound. The per-shard capacities distribute the remainder so they sum
// to exactly the configured capacity — CacheStats.Capacity must report
// the real bound, not capacity/shards*shards.
func shardLayout(shards, capacity int) (pow int, caps []int) {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	pow = 1
	for pow < shards {
		pow <<= 1
	}
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	for pow > 1 && capacity < pow {
		pow >>= 1
	}
	caps = make([]int, pow)
	base, extra := capacity/pow, capacity%pow
	for i := range caps {
		caps[i] = base
		if i < extra {
			caps[i]++
		}
	}
	return pow, caps
}

func pairKey(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

// shardIndex mixes the packed key (Murmur3's 64-bit finalizer: full
// avalanche, so dense nearby pair keys still spread) and keeps the low
// bits as the shard index. Two multiplies flat, against the eight-round
// byte loop of the FNV-1a it replaced — the hash runs once per query on
// the hot path, where the loop showed up on profiles.
func shardIndex(k uint64, mask uint32) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return uint32(k) & mask
}

// CacheStats is the cache section of /v1/stats. Small, Main and Ghost
// report the S3-FIFO segment sizes; they are always present (zero is a
// meaningful segment size on an idle server).
type CacheStats struct {
	Shards   int     `json:"shards"`
	Capacity int     `json:"capacity"`
	Entries  int     `json:"entries"`
	Small    int     `json:"small"`
	Main     int     `json:"main"`
	Ghost    int     `json:"ghost"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}
