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
// and both leader-mode paths share: MaxPackCount caps the payloads per
// sequence number, a payload larger than MaxPackBytes still travels
// (alone), and MaxPackCount 1 sends every payload plain under its own
// sequence number. The leader case runs after the fast path promotes
// and submits from a follower (forwarded batches) and from the
// sequencer (batches it orders itself).
func TestPackingRespectsBounds(t *testing.T) {
	cases := []struct {
		name     string
		nodes    int
		ordering OrderingMode
		count    int
		bytes    int
	}{
		{"ring-count4-bytes64", 1, OrderingRing, 4, 64},
		{"ring-count1-plain", 1, OrderingRing, 1, 0},
		{"leader-count4-bytes64", 3, OrderingLeader, 4, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClusterCfg(t, tc.nodes, func(cfg *Config) {
				cfg.Ordering = tc.ordering
				cfg.MaxPackCount = tc.count
				cfg.MaxPackBytes = tc.bytes
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

			const small = 20
			big := make([]byte, 200) // > MaxPackBytes: must still travel
			for _, id := range senders {
				for i := 0; i < small; i++ {
					if err := c.nodes[id].Multicast([]byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.nodes[id].Multicast(big); err != nil {
					t.Fatal(err)
				}
			}

			total := len(senders) * (small + 1)
			perSeq := make(map[uint64]int)
			perSender := make(map[memnet.NodeID]int)
			var last uint64
			for i, d := range c.collect(c.ids[0], total) {
				perSeq[d.Seq]++
				if perSender[d.Sender] == small && len(d.Payload) != len(big) {
					t.Fatalf("oversized payload from %s arrived with %d bytes, want %d", d.Sender, len(d.Payload), len(big))
				}
				perSender[d.Sender]++
				if tc.count == 1 {
					if d.Sub != 0 {
						t.Fatalf("MaxPackCount 1 but delivery has sub-index %d", d.Sub)
					}
					if i > 0 && d.Seq != last+1 {
						t.Fatalf("non-contiguous seqs %d -> %d", last, d.Seq)
					}
				}
				last = d.Seq
			}
			for seq, parts := range perSeq {
				if parts > tc.count {
					t.Fatalf("seq %d carried %d payloads, cap is %d", seq, parts, tc.count)
				}
			}
			var packed uint64
			for _, id := range senders {
				st := c.nodes[id].Stats()
				packed += st.PackedMsgs
				if tc.ordering == OrderingLeader && st.Demotions != 0 {
					t.Fatalf("%s demoted %d times; the leader paths went untested", id, st.Demotions)
				}
			}
			if tc.ordering == OrderingLeader &&
				(c.nodes[senders[0]].Stats().LeaderBatches == 0 || c.nodes[senders[1]].Stats().Forwarded == 0) {
				t.Fatal("the submissions did not take the leader fast path")
			}
			if tc.count == 1 && packed != 0 {
				t.Fatalf("packed %d messages with MaxPackCount 1", packed)
			}
		})
	}
}
