package totem

import (
	"testing"

	"eternalgw/internal/memnet"
)

// TestPackingBundlesBacklog checks the packing mechanics directly: a
// backlog submitted to an idle single-node ring drains in far fewer
// datagrams than payloads, each payload arrives in order with its
// sub-index, and the counters account for the packs.
func TestPackingBundlesBacklog(t *testing.T) {
	c := newCluster(t, 1)
	c.waitConfig("n00", 1)
	n := c.nodes["n00"]

	// Submit the backlog in one gulp while the ring is idle; the next
	// token visit packs it.
	const total = 100
	for i := 0; i < total; i++ {
		if err := n.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.collect("n00", total)
	for i, d := range ds {
		if d.Payload[0] != byte(i) {
			t.Fatalf("delivery %d = %v, submission order lost", i, d.Payload)
		}
		if i > 0 && ds[i].Timestamp() <= ds[i-1].Timestamp() {
			t.Fatalf("non-increasing timestamps at %d", i)
		}
	}
	st := n.Stats()
	if st.PackedMsgs == 0 || st.PackedParts < 2 {
		t.Fatalf("no packing happened: %+v", st)
	}
	if st.Broadcast >= total {
		t.Fatalf("broadcast %d datagrams for %d payloads; packing saved nothing", st.Broadcast, total)
	}
}

// TestPackingUnderLossyNetwork is the safety test for packing: under
// packet loss and duplication, every node must deliver the identical
// payload sequence in total order, with no duplicate and no missing
// (Seq, Sub), and retransmitted packs must unpack the same way.
func TestPackingUnderLossyNetwork(t *testing.T) {
	c := newCluster(t, 3, memnet.WithSeed(13), memnet.WithLoss(0.10), memnet.WithDuplication(0.05))
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	const per = 60
	for _, id := range c.ids {
		go func(n *Node, tag byte) {
			for i := 0; i < per; i++ {
				_ = n.Multicast([]byte{tag, byte(i)})
			}
		}(c.nodes[id], id[1])
	}
	total := per * len(c.ids)
	var ref []Delivery
	for _, id := range c.ids {
		got := c.collect(id, total)
		seen := make(map[uint64]bool, total)
		perSender := make(map[memnet.NodeID]byte, 3)
		for i, d := range got {
			if seen[d.Timestamp()] {
				t.Fatalf("%s: duplicate delivery (seq %d, sub %d)", id, d.Seq, d.Sub)
			}
			seen[d.Timestamp()] = true
			if i > 0 && got[i].Timestamp() <= got[i-1].Timestamp() {
				t.Fatalf("%s: order violated at %d", id, i)
			}
			// Sender FIFO: each sender's payloads carry its own counter.
			if d.Payload[1] != perSender[d.Sender] {
				t.Fatalf("%s: sender %s payload %d, want %d", id, d.Sender, d.Payload[1], perSender[d.Sender])
			}
			perSender[d.Sender]++
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i].Seq != ref[i].Seq || got[i].Sub != ref[i].Sub ||
				got[i].Sender != ref[i].Sender || string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s: delivery %d differs: %+v vs %+v", id, i, got[i], ref[i])
			}
		}
	}
	var packed uint64
	for _, id := range c.ids {
		packed += c.nodes[id].Stats().PackedMsgs
	}
	if packed == 0 {
		t.Fatal("no packed messages originated; the test exercised nothing")
	}
}

// TestPackingRespectsBounds pins the pack bounds that the ring drain
// and both leader-mode paths share, at the values production runs with:
// a backlog of tiny payloads packs at most maxPackCount per sequence
// number, payloads of 12 KiB pack at most two to a message (the
// maxPackBytes bound), and a payload larger than maxPackBytes travels
// alone in the plain form (the ring-plain case). The leader case runs
// every phase after the fast path promotes and submits from a follower
// (forwarded batches) and from the sequencer (batches it orders itself).
func TestPackingRespectsBounds(t *testing.T) {
	type phase struct {
		name        string
		count, size int
	}
	packed := []phase{
		{"tiny", 3 * maxPackCount, 1},
		{"12KiB", 6, 12 << 10},
	}
	plain := []phase{{"40KiB", 1, 40 << 10}}
	cases := []struct {
		name     string
		nodes    int
		ordering OrderingMode
		phases   []phase
	}{
		{"ring", 1, OrderingRing, packed},
		{"ring-plain", 1, OrderingRing, plain},
		{"leader", 3, OrderingLeader, append(packed, plain...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClusterCfg(t, tc.nodes, func(cfg *Config) {
				cfg.Ordering = tc.ordering
			})
			for _, id := range c.ids {
				c.waitConfig(id, tc.nodes)
			}
			senders := []memnet.NodeID{c.ids[0]}
			if tc.ordering == OrderingLeader {
				leader, _ := c.waitFastpath()
				senders = []memnet.NodeID{leader}
				for _, id := range c.ids {
					if id != leader {
						senders = append(senders, id)
						break
					}
				}
			}
			packedMsgs := func() (total uint64) {
				for _, id := range senders {
					total += c.nodes[id].Stats().PackedMsgs
				}
				return total
			}

			for _, ph := range tc.phases {
				packedBefore := packedMsgs()
				for _, id := range senders {
					for i := 0; i < ph.count; i++ {
						if err := c.nodes[id].Multicast(make([]byte, ph.size)); err != nil {
							t.Fatal(err)
						}
					}
				}
				perSeq := make(map[uint64][]int)
				for _, d := range c.collect(c.ids[0], len(senders)*ph.count) {
					if len(d.Payload) != ph.size {
						t.Fatalf("%s: payload of %d bytes arrived with %d", ph.name, ph.size, len(d.Payload))
					}
					if ph.size > maxPackBytes && d.Sub != 0 {
						t.Fatalf("%s: oversized payload packed at sub-index %d", ph.name, d.Sub)
					}
					perSeq[d.Seq] = append(perSeq[d.Seq], len(d.Payload))
				}
				for seq, sizes := range perSeq {
					bytes := 0
					for _, n := range sizes {
						bytes += n
					}
					if len(sizes) > maxPackCount || (len(sizes) > 1 && bytes > maxPackBytes) {
						t.Fatalf("%s: seq %d carried %d payloads of %d bytes, caps are %d and %d",
							ph.name, seq, len(sizes), bytes, maxPackCount, maxPackBytes)
					}
				}
				if ph.size > maxPackBytes && packedMsgs() != packedBefore {
					t.Fatalf("%s: packed messages %d -> %d for a payload over the byte bound", ph.name, packedBefore, packedMsgs())
				}
			}
			for _, id := range senders {
				if st := c.nodes[id].Stats(); tc.ordering == OrderingLeader && st.Demotions != 0 {
					t.Fatalf("%s demoted %d times; the leader paths went untested", id, st.Demotions)
				}
			}
			if tc.ordering == OrderingLeader &&
				(c.nodes[senders[0]].Stats().LeaderBatches == 0 || c.nodes[senders[1]].Stats().Forwarded == 0) {
				t.Fatal("the submissions did not take the leader fast path")
			}
		})
	}
}
