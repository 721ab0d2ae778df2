package server_test

import (
	"runtime"
	"sync"
	"testing"

	"tebis/internal/client"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/replica"
	"tebis/internal/server"
	"tebis/internal/ycsb"
)

// TestOneSpinnerPerPAtGOMAXPROCS1 counts what the op path yields to on
// one P: a 3-server Send-Index cluster, as the benchmark builds it, with
// two clients getting on two goroutines. Every sweep a spinning thread
// finds nothing in ends in a yield. With one spinner per server there are
// about 1.5 such sweeps per get; with two per server, time-slicing the
// one P, about 3.
func TestOneSpinnerPerPAtGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := cluster.New(cluster.Config{
		Servers:     3,
		Regions:     6,
		Replicas:    1,
		Mode:        replica.SendIndex,
		SegmentSize: 1 << 20,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    1 << 16,
			MaxLevels:    4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	const keys, gets = 200, 2000
	key := func(i int) []byte { return ycsb.Key(uint64(i % keys)) } // hashed: every region gets some
	var clients [2]*client.Client
	for i := range clients {
		cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	for i := 0; i < keys; i++ {
		if err := clients[0].Put(key(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	sweeps := func() (n uint64) {
		for _, node := range c.Nodes {
			n += server.EmptySweeps(node.Server)
		}
		return n
	}
	before := sweeps()
	var wg sync.WaitGroup
	for g, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < gets; i += len(clients) {
				if _, found, err := cl.Get(key(i)); err != nil || !found {
					t.Errorf("get %d: found %v, %v", i, found, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	perOp := float64(sweeps()-before) / gets
	t.Logf("%.2f empty sweeps per get", perOp)
	if perOp > 2.0 {
		t.Fatalf("%.2f empty spinner sweeps per get at GOMAXPROCS=1, want ≤ 2.0: more spinning threads than Ps", perOp)
	}
}
