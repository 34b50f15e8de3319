package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// sampleKeys builds a deterministic keyspace sample shaped like service.Key
// output (hex content hashes are uniform, and keyHash rehashes anyway).
func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	return keys
}

// Same peers ⇒ byte-identical placement, regardless of the order or
// spacing the peer list arrives in: this is what lets N processes agree on
// ownership with no coordination.
func TestRingDeterministicPlacement(t *testing.T) {
	keys := sampleKeys(5000)
	orders := [][]string{
		{"a:1", "b:2", "c:3"},
		{"c:3", "a:1", "b:2"},
		{" b:2", "c:3 ", "a:1"}, // whitespace must not change identity
	}
	var want []string
	for oi, peers := range orders {
		r, err := New(peers)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(keys))
		for i, k := range keys {
			got[i] = r.Owner(k)
		}
		if oi == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v produced a different placement", peers)
		}
	}
	// A freshly built ring in a "different process" (new allocation) agrees.
	r2, _ := New([]string{"a:1", "b:2", "c:3"})
	for i, k := range keys {
		if r2.Owner(k) != want[i] {
			t.Fatalf("fresh ring disagrees on %s: %s vs %s", k, r2.Owner(k), want[i])
		}
	}
}

func TestRingDistribution(t *testing.T) {
	peers := []string{"a:1", "b:2", "c:3", "d:4"}
	r, err := New(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := sampleKeys(20000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	// With 128 vnodes each share should be near 1/4; allow a wide band.
	for _, p := range peers {
		share := float64(counts[p]) / float64(len(keys))
		if share < 0.10 || share > 0.45 {
			t.Errorf("peer %s owns %.1f%% of the keyspace: %v", p, 100*share, counts)
		}
	}
}

// Adding one peer to an N-ring must move only ~1/(N+1) of the keyspace,
// and every moved key must move TO the new peer (consistent hashing's
// defining property — a rebalance never shuffles keys between old peers).
func TestRingRebalanceAdd(t *testing.T) {
	keys := sampleKeys(20000)
	old, _ := New([]string{"a:1", "b:2", "c:3", "d:4"})
	grown, _ := New([]string{"a:1", "b:2", "c:3", "d:4", "e:5"})
	moved := 0
	for _, k := range keys {
		was, is := old.Owner(k), grown.Owner(k)
		if was == is {
			continue
		}
		if is != "e:5" {
			t.Fatalf("key %s moved %s -> %s, not to the new peer", k, was, is)
		}
		moved++
	}
	frac := float64(moved) / float64(len(keys))
	// Expect ~1/5 = 20%; vnode variance keeps it well inside [8%, 35%].
	if frac < 0.08 || frac > 0.35 {
		t.Errorf("adding 1 of 5 peers moved %.1f%% of keys, want ~20%%", 100*frac)
	}
}

// Removing a peer moves exactly that peer's keys; everything else stays.
func TestRingRebalanceRemove(t *testing.T) {
	keys := sampleKeys(20000)
	full, _ := New([]string{"a:1", "b:2", "c:3", "d:4"})
	shrunk, _ := New([]string{"a:1", "b:2", "d:4"})
	for _, k := range keys {
		was, is := full.Owner(k), shrunk.Owner(k)
		if was == "c:3" {
			if is == "c:3" {
				t.Fatalf("key %s still owned by removed peer", k)
			}
			continue
		}
		if was != is {
			t.Fatalf("key %s moved %s -> %s though its owner was not removed", k, was, is)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty peer list must be rejected")
	}
	if _, err := New([]string{"", "  "}); err == nil {
		t.Error("blank-only peer list must be rejected")
	}
	if _, err := New([]string{"a:1", "a:1"}); err == nil {
		t.Error("duplicate peers must be rejected")
	}
}

func TestRingHas(t *testing.T) {
	r, _ := New([]string{"b:2", "a:1"})
	if !r.Has("a:1") || !r.Has("b:2") {
		t.Error("Has must report configured peers")
	}
	if r.Has("c:3") {
		t.Error("Has must reject unknown peers")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if got := r.Peers(); !reflect.DeepEqual(got, []string{"a:1", "b:2"}) {
		t.Errorf("Peers = %v, want sorted [a:1 b:2]", got)
	}
}
