package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"

	"tebis/internal/kv"
	"tebis/internal/ycsb"
)

// sizes fixes one run's op and record counts.
type sizes struct {
	// records is the unmeasured preload.
	records uint64
	// ops is the measured op count of an untraced run. It also fixes the
	// stream: Load A shards [0, ops) between the two clients.
	ops int
	// ladderOps is how many ops of the stream the ladder and the two
	// cluster runs of a traced run replay.
	ladderOps int
	// failoverReads is load_sd's read-back sample after the crash.
	failoverReads int
}

// sizesFor scales w's op counts to seconds.
func sizesFor(w workloadDef, seconds int) sizes {
	sz := sizes{
		records:       w.Records,
		ops:           w.OpsPerSecond * seconds,
		ladderOps:     ladderOps,
		failoverReads: failoverReads,
	}
	if sz.ladderOps > sz.ops {
		sz.ladderOps = sz.ops
	}
	return sz
}

// warmupOps is the unmeasured warm-up of a run phase: 5% of its ops.
func (sz sizes) warmupOps() int {
	if sz.records == 0 {
		return 0 // a load is measured from its first insert
	}
	return sz.ops / 20
}

// stream is a workload's generated input: one ycsb.Generator per
// client, seeded from --seed. Client t issues gens[t]'s ops in order;
// the op index shared by every span of one request is 2j+t for client
// t's j-th op, and the ladder replays indices 0, 1, 2, ... in turn.
type stream struct {
	gens [numClients]*ycsb.Generator
}

func newStream(w workloadDef, sz sizes, seed int64) *stream {
	s := &stream{}
	for t := range s.gens {
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: w.Phase,
			Records:  sz.records,
			Mix:      w.Mix,
			Seed:     seed*numClients + int64(t),
		})
		if w.Phase == ycsb.LoadA {
			n := uint64(sz.ops)
			g.SetLoadRange(uint64(t)*n/numClients, uint64(t+1)*n/numClients)
		}
		s.gens[t] = g
	}
	return s
}

// next returns op i of the interleaved stream; call with i = 0, 1, ...
func (s *stream) next(i int) (ycsb.Op, bool) {
	return s.gens[i%numClients].Next()
}

// hash digests the first n ops of the interleaved stream — kinds, keys
// and values — so a test can show that a seed fixes the inputs.
func (s *stream) hash(n int) uint64 {
	h := fnv.New64a()
	var kind [1]byte
	for i := 0; i < n; i++ {
		op, ok := s.next(i)
		if !ok {
			break
		}
		kind[0] = byte(op.Kind)
		h.Write(kind[:])
		h.Write(op.Key)
		h.Write(op.Value)
	}
	return h.Sum64()
}

// preloadStream returns client t's share of the unmeasured preload.
func preloadStream(w workloadDef, sz sizes, t int) *ycsb.Generator {
	g := ycsb.NewGenerator(ycsb.Config{Workload: ycsb.LoadA, Records: sz.records, Mix: w.Mix})
	g.SetLoadRange(uint64(t)*sz.records/numClients, uint64(t+1)*sz.records/numClients)
	return g
}

// oracle recomputes what the store must hold: a record's key and value
// are pure functions of its index (ycsb.Key documents the key layout:
// 8 hash bytes, then the index as 16 decimal digits), and updates
// rewrite the same value. It uses only the generator's public API.
type oracle struct {
	gen *ycsb.Generator
}

func newOracle(mix ycsb.SizeMix) *oracle {
	return &oracle{gen: ycsb.NewGenerator(ycsb.Config{Workload: ycsb.LoadA, Mix: mix})}
}

// recordOf parses the record index out of a generated key.
func recordOf(key []byte) (uint64, error) {
	if len(key) != ycsb.KeySize {
		return 0, fmt.Errorf("key of %d bytes", len(key))
	}
	return strconv.ParseUint(string(key[8:]), 10, 64)
}

// pair returns record i's key and value; both alias buffers that the
// next call overwrites.
func (o *oracle) pair(i uint64) (key, value []byte) {
	o.gen.SetLoadRange(i, i+1)
	op, _ := o.gen.Next()
	return op.Key, op.Value
}

// checkGet reports whether value is what a get of key must return.
func (o *oracle) checkGet(key, value []byte, found bool) bool {
	if !found {
		return false
	}
	i, err := recordOf(key)
	if err != nil {
		return false
	}
	wantKey, wantValue := o.pair(i)
	return bytes.Equal(key, wantKey) && bytes.Equal(value, wantValue)
}

// checkScan reports whether pairs is a legal reply to Scan(start,
// scanLen): at most scanLen pairs, keys strictly ascending and >= start.
func checkScan(start []byte, pairs []kv.Pair) bool {
	if len(pairs) > scanLen {
		return false
	}
	prev := start
	for i, p := range pairs {
		c := kv.Compare(p.Key, prev)
		if c < 0 || (c == 0 && i > 0) {
			return false
		}
		prev = p.Key
	}
	return true
}

// op is a materialised stream op: the generator reuses its value
// buffer, so the ladder copies each batch before timing it.
type op struct {
	kind  ycsb.OpKind
	key   []byte
	value []byte
	rec   uint64
}

func (o op) isWrite() bool { return isWriteOp(o.kind) }

// batchSize is how many ops a micro rung times per clock reading, to
// keep time.Now out of a number that is tens of nanoseconds.
const batchSize = 64

// replay feeds the first n ops of w's stream to fn in batches of up to
// batchSize; first is the op index of batch[0]. The batch's memory is
// reused between calls.
func replay(w workloadDef, sz sizes, seed int64, n int, fn func(first int, batch []op) error) error {
	s := newStream(w, sz, seed)
	batch := make([]op, 0, batchSize)
	buf := make([]byte, 0, batchSize*ycsb.LargeSize)
	for i := 0; i < n; {
		first := i
		batch, buf = batch[:0], buf[:0]
		for len(batch) < batchSize && i < n {
			g, ok := s.next(i)
			if !ok {
				n = i
				break
			}
			rec, err := recordOf(g.Key)
			if err != nil {
				return err
			}
			off := len(buf)
			buf = append(append(buf, g.Key...), g.Value...)
			k := buf[off : off+len(g.Key) : off+len(g.Key)]
			v := buf[off+len(g.Key) : len(buf) : len(buf)]
			batch = append(batch, op{kind: g.Kind, key: k, value: v, rec: rec})
			i++
		}
		if len(batch) == 0 {
			break
		}
		if err := fn(first, batch); err != nil {
			return err
		}
	}
	return nil
}
