// Package cluster is the scale-out layer behind addsd -peers: a
// consistent-hash ring that partitions the content-addressed cache keyspace
// across N addsd processes, and a small HTTP client for the two inter-shard
// operations (cache peek, request forward) with a short timeout and a
// single retry.
//
// Placement is deterministic by construction: the ring is built from the
// sorted, deduplicated peer list with a fixed number of virtual nodes per
// peer, every ring point is the SHA-256 of peer⫶vnode, and keys (already
// SHA-256 hex strings from service.Key) are rehashed the same way — so two
// processes given the same -peers flag compute byte-identical placement
// with no coordination, and adding or removing one peer moves only ~1/N of
// the keyspace.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// virtualNodes is the per-peer vnode count. 128 points per peer
// keeps the owned-share imbalance of a small cluster within a few percent
// while the whole ring for a dozen peers still fits in one cache line scan.
const virtualNodes = 128

// point is one virtual node on the ring.
type point struct {
	hash uint64
	peer string
	vn   int
}

// Ring maps content-address keys onto peers by consistent hashing.
// Immutable after New; safe for concurrent use.
type Ring struct {
	peers  []string
	points []point
}

// New builds a ring over the peer addresses with virtualNodes points per
// peer. Peers are trimmed, deduplicated, and sorted, so every process
// handed the same set — in any order, with any spacing — builds the
// identical ring.
func New(peers []string) (*Ring, error) {
	seen := map[string]bool{}
	var clean []string
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		clean = append(clean, p)
	}
	if len(clean) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	sort.Strings(clean)
	r := &Ring{peers: clean, points: make([]point, 0, len(clean)*virtualNodes)}
	for _, p := range clean {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, point{hash: pointHash(p, i), peer: p, vn: i})
		}
	}
	// Full-tuple ordering: a 64-bit collision between two peers' points is
	// astronomically unlikely, but the tie-break keeps even that case
	// deterministic across processes.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.peer != b.peer {
			return a.peer < b.peer
		}
		return a.vn < b.vn
	})
	return r, nil
}

// pointHash places one virtual node: the first 8 bytes of
// SHA-256("peer\x00vnode").
func pointHash(peer string, vn int) uint64 {
	h := sha256.New()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(vn)))
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// keyHash places a key. Keys from service.Key are already uniform SHA-256
// hex, but rehashing makes Owner total over arbitrary strings.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the peer that owns key: the first ring point at or after
// the key's hash, wrapping past the top of the ring.
func (r *Ring) Owner(key string) string {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// Peers returns the sorted peer list the ring was built from. The slice is
// shared; callers must not mutate it.
func (r *Ring) Peers() []string { return r.peers }

// Len returns the number of peers.
func (r *Ring) Len() int { return len(r.peers) }

// Has reports whether addr is one of the ring's peers.
func (r *Ring) Has(addr string) bool {
	i := sort.SearchStrings(r.peers, addr)
	return i < len(r.peers) && r.peers[i] == addr
}
