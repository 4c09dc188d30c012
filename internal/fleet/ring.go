package fleet

import (
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring mapping topology scope keys (rack or
// midplane codes) to shard names. Each member contributes Replicas
// virtual points; a key is owned by the first point clockwise of its
// hash. The construction is fully deterministic — FNV-1a over explicit
// strings, sorted point order, no map iteration — so the same member
// set always yields the same scope→shard map, and adding one member
// moves only the keys whose arc its points take over (≈ 1/(n+1) of the
// key space), all of them to the new member. Members are only ever
// added: a fleet's shards are fixed when it is built.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by (hash, owner)
}

type ringPoint struct {
	hash  uint64
	owner string
}

// DefaultReplicas is the virtual-point count per member: enough to keep
// the per-member load imbalance in the few-percent range for small
// fleets without making Add quadratic.
const DefaultReplicas = 128

// NewRing returns an empty ring; replicas <= 0 selects DefaultReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas}
}

// Add inserts a member's points. Adding a member twice only duplicates
// its points, so no key changes owner.
func (r *Ring) Add(name string) {
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: fnv64a(name + "#" + strconv.Itoa(i)), owner: name})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
}

// Owner maps a scope key to its owning member ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the ring
	}
	return r.points[i].owner
}

// fnv64a is the 64-bit FNV-1a string hash run through a splitmix64-style
// finalizer, inlined so the per-record routing path allocates nothing.
// Raw FNV avalanches poorly on the short, near-identical strings scope
// keys and vnode labels are ("R00", "R01", "shard0#17"), which clusters
// ring points; the finalizer spreads them.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
