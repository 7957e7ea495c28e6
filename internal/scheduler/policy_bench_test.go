package scheduler

import (
	"fmt"
	"math/rand"
	"testing"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

// BenchmarkSelectHosts measures least-loaded placement on a loaded fleet:
// each op places one kernel's three replicas where SelectHosts says and
// retires the oldest live kernel, so the load index is updated on every
// op as it is in the simulator. visits/op is the deterministic work
// counter (cluster.PlacementWork): the index entries one SelectHosts call
// read.
func BenchmarkSelectHosts(b *testing.B) {
	for _, hosts := range []int{128, 1024} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			c := cluster.New(3)
			for i := 0; i < hosts; i++ {
				if err := c.AddHost(cluster.NewHost(fmt.Sprintf("sim-h%04d", i+1), resources.P316xlarge())); err != nil {
					b.Fatal(err)
				}
			}
			type kernel struct {
				hosts   []*cluster.Host
				handles []cluster.ReplicaHandle
				key     string
			}
			p := LeastLoaded{}
			r := rand.New(rand.NewSource(1))
			// Fill to about half the default watermark, with a tenth of
			// the hosts executing, so levels and buckets are populated.
			live := make([]kernel, 0, 4*hosts)
			place := func(i int) {
				req := gpuReq(1 + r.Intn(4))
				sel, err := p.SelectHosts(c, req, 3)
				if err != nil {
					b.Fatal(err)
				}
				k := kernel{hosts: sel, handles: make([]cluster.ReplicaHandle, len(sel)), key: fmt.Sprintf("k%d", i)}
				for j, h := range sel {
					rh, err := h.PlaceReplica(req)
					if err != nil {
						b.Fatal(err)
					}
					k.handles[j] = rh
				}
				live = append(live, k)
			}
			for i := 0; i < 4*hosts; i++ {
				place(i)
			}
			// The first tenth execute for the whole run; the rest form a
			// FIFO of retirable kernels.
			for _, k := range live[:hosts/10] {
				if err := k.hosts[0].Commit(k.key, gpuReq(1+r.Intn(4))); err != nil {
					b.Fatal(err)
				}
			}
			head := hosts / 10
			calls0, visits0 := c.PlacementWork()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				place(4*hosts + i)
				old := live[head]
				for j, h := range old.hosts {
					if err := h.RemoveReplica(old.handles[j]); err != nil {
						b.Fatal(err)
					}
				}
				if head++; head > len(live)/2 {
					live = append(live[:0], live[head:]...)
					head = 0
				}
			}
			b.StopTimer()
			calls, visits := c.PlacementWork()
			b.ReportMetric(float64(visits-visits0)/float64(calls-calls0), "visits/op")
		})
	}
}
