package cluster

import (
	"fmt"
	"testing"

	"notebookos/internal/resources"
)

// TestLoadIndexRanksFollowIDOrder files hosts in descending ID order, so
// every host ranks before all filed ones and the free ranks below the
// first run out repeatedly, forcing the index to rank every host again.
// Through all of it, ranks must follow ID order and an unloaded cluster's
// least-loaded order must be plain ID order.
func TestLoadIndexRanksFollowIDOrder(t *testing.T) {
	c := New(3)
	const hosts = 200
	for i := hosts; i > 0; i-- {
		if err := c.AddHost(NewHost(fmt.Sprintf("h%04d", i), resources.P316xlarge())); err != nil {
			t.Fatal(err)
		}
		if i == hosts {
			c.SelectLeastLoaded(resources.Spec{GPUs: 1}, 1, 3) // build the index
		}
	}
	// Retire every third host so removals are exercised too.
	for i := 3; i <= hosts; i += 3 {
		if err := c.RemoveHost(fmt.Sprintf("h%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ix := c.idx
	for i := 1; i < len(ix.byID); i++ {
		a, b := ix.byID[i-1], ix.byID[i]
		if ix.entries[a].h.ID >= ix.entries[b].h.ID || ix.rank[a] >= ix.rank[b] {
			t.Fatalf("byID[%d..%d]: %s (rank %d) before %s (rank %d)", i-1, i,
				ix.entries[a].h.ID, ix.rank[a], ix.entries[b].h.ID, ix.rank[b])
		}
	}
	n := c.NumHosts()
	balanced, _ := c.SelectLeastLoaded(resources.Spec{GPUs: 1}, n, 3)
	if len(balanced) != n {
		t.Fatalf("%d balanced hosts, want %d", len(balanced), n)
	}
	for i := 1; i < n; i++ {
		if balanced[i-1].ID >= balanced[i].ID {
			t.Fatalf("position %d: %s before %s", i, balanced[i-1].ID, balanced[i].ID)
		}
	}
}

// TestPlacementWorkCountsHostsRead: PlacementWork counts each
// SelectLeastLoaded call and every host it reads. On an unloaded cluster
// all hosts share one bucket, which a call reads whole, whatever n.
func TestPlacementWorkCountsHostsRead(t *testing.T) {
	c := New(3)
	const hosts = 50
	for i := 1; i <= hosts; i++ {
		if err := c.AddHost(NewHost(fmt.Sprintf("h%04d", i), resources.P316xlarge())); err != nil {
			t.Fatal(err)
		}
	}
	if calls, visits := c.PlacementWork(); calls != 0 || visits != 0 {
		t.Fatalf("fresh cluster: %d calls, %d visits", calls, visits)
	}
	for _, n := range []int{1, 3, 5} {
		calls0, visits0 := c.PlacementWork()
		if balanced, _ := c.SelectLeastLoaded(resources.Spec{GPUs: 1}, n, 3); len(balanced) != n {
			t.Fatalf("n=%d: %d balanced hosts", n, len(balanced))
		}
		calls, visits := c.PlacementWork()
		if calls-calls0 != 1 || visits-visits0 != hosts {
			t.Fatalf("n=%d: %d calls, %d hosts read; want 1, %d", n, calls-calls0, visits-visits0, hosts)
		}
	}
}
