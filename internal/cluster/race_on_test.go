//go:build race

package cluster

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put into it, so allocation ceilings over pooled buffers do not hold.
const raceEnabled = true
