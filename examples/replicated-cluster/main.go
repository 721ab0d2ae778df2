// Replicated cluster: bring up the paper's topology — three region
// servers, a master, a coordination service — under both replication
// schemes, drive the same write-heavy workload through real clients
// over the simulated RDMA protocol, and print the Send-Index vs
// Build-Index trade-off the paper measures: backup CPU and device I/O
// traded for network traffic (§3.3, §5.1).
//
// Run with: go run ./examples/replicated-cluster
package main

import (
	"fmt"
	"log"

	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/replica"
)

func run(mode replica.Mode) cluster.Totals {
	c, err := cluster.New(cluster.Config{
		Servers:     3,
		Regions:     6,
		Replicas:    1, // two-way replication
		Mode:        mode,
		SegmentSize: 32 << 10,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    512,
			MaxLevels:    6,
		},
		// This example demonstrates the paper's raw-shipping trade-off;
		// the default ship codec (DESIGN.md "Replication") would shrink the
		// network column.
		ShipUncompressed: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	cl, err := c.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// A write-heavy phase: 10k inserts with 60-byte values.
	value := make([]byte, 60)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("acct-%02x-%08d", i%251, i)
		if err := cl.Put([]byte(key), value); err != nil {
			log.Fatal(err)
		}
	}
	// Reads work regardless of the replication scheme.
	probe := fmt.Sprintf("acct-%02x-%08d", 5000%251, 5000)
	if _, found, err := cl.Get([]byte(probe)); err != nil || !found {
		log.Fatalf("read-back failed: found=%v err=%v", found, err)
	}

	if err := c.FlushAll(); err != nil {
		log.Fatal(err)
	}
	return c.Totals()
}

func main() {
	fmt.Println("running identical workloads under both replication schemes...")
	send := run(replica.SendIndex)
	build := run(replica.BuildIndex)

	fmt.Printf("\n%-28s %15s %15s\n", "metric", "Send-Index", "Build-Index")
	fmt.Printf("%-28s %15d %15d\n", "device bytes (all nodes)", send.DeviceBytes, build.DeviceBytes)
	fmt.Printf("%-28s %15d %15d\n", "  of which reads", send.DeviceReadBytes, build.DeviceReadBytes)
	fmt.Printf("%-28s %15d %15d\n", "network bytes (servers)", send.NetServerBytes, build.NetServerBytes)
	fmt.Printf("%-28s %15d %15d\n", "simulated cycles", send.Cycles.Total(), build.Cycles.Total())
	fmt.Printf("%-28s %15d %15d\n", "  compaction cycles",
		send.Cycles[metrics.CompCompaction], build.Cycles[metrics.CompCompaction])
	fmt.Printf("%-28s %15d %15d\n", "  index rewrite cycles",
		send.Cycles[metrics.CompRewriteIndex], build.Cycles[metrics.CompRewriteIndex])

	fmt.Println("\nthe paper's trade-off, visible above:")
	fmt.Printf("  Send-Index does %.2fx less device I/O and %.2fx fewer cycles,\n",
		float64(build.DeviceBytes)/float64(send.DeviceBytes),
		float64(build.Cycles.Total())/float64(send.Cycles.Total()))
	fmt.Printf("  at the cost of %.2fx more network traffic.\n",
		float64(send.NetServerBytes)/float64(build.NetServerBytes))
}
