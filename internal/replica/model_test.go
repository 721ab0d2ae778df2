package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tebis/internal/kv"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/storage"
)

// TestPairModelEquivalence is the replicated pair's model test: random
// sequences of puts, deletes and flushes drive a primary with one
// Send-Index backup, then the backup is promoted and every key's Get and
// one full Scan on the promoted engine are checked against a reference
// map. Every index segment the primary's compactions ship, and every
// pointer the backup rewrites through its index and log maps, lies under
// what the promoted engine reads. Before the promotion, every level
// filter the backup built from the leaves it rewrote must be the
// primary's, bit for bit: the promoted engine serves with them.
//
// The shapes are those of the engine's own model test (lsm
// TestModelEquivalence): keys that tie on their leaf prefixes through
// levels small enough that a key's versions sit in several at once, and
// devices of 32 segments whose node caches hold four nodes, so freed
// segments are recycled within every run on both sides of the pair.
func TestPairModelEquivalence(t *testing.T) {
	memDev := func(t *testing.T) storage.Device {
		mem, err := storage.NewMemDevice(16<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mem.Close() })
		return mem
	}
	filtered := 0 // levels whose equal filters were not nil
	t.Run("mem", func(t *testing.T) {
		filtered += testPairModel(t, modelPlainKey, memDev, lsmOpts())
	})
	t.Run("prefixTies", func(t *testing.T) {
		opt := lsmOpts()
		opt.L0MaxKeys = 24
		opt.GrowthFactor = 2
		filtered += testPairModel(t, modelTieKey, memDev, opt)
	})
	t.Run("tinyNodeCache", func(t *testing.T) {
		filtered += testPairModel(t, modelPlainKey, func(t *testing.T) storage.Device {
			mem, err := storage.NewMemDevice(16<<10, 32)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mem.Close() })
			dev := storage.AsVerifying(mem)
			dev.NodeCache().Resize(4)
			return dev
		}, lsmOpts())
	})
	if filtered == 0 {
		t.Fatal("no run left a filtered level to compare")
	}
}

// modelPlainKey and modelTieKey are the engine model test's key
// populations: 512 keys with distinct leaf prefixes, and 512 slots over
// keys built to collide on them (three long runs sharing a twelve-byte
// prefix each, and short keys that differ only in trailing zero bytes).
func modelPlainKey(i int) string { return fmt.Sprintf("key%05d", i%512) }

func modelTieKey(i int) string {
	i %= 512
	if i%16 == 0 {
		return "ab" + strings.Repeat("\x00", i/16%6)
	}
	return fmt.Sprintf("sameprefix%02d-%03d", i%3, i)
}

// modelPair wires a primary engine to one Send-Index backup, each on a
// device newDev makes, both with opt.
func modelPair(t *testing.T, newDev func(*testing.T) storage.Device, opt lsm.Options) (*Primary, *lsm.DB, *Backup) {
	t.Helper()
	cost := metrics.DefaultCostModel()
	p := NewPrimary(PrimaryConfig{
		RegionID: 1, ServerName: "primary", Mode: SendIndex,
		Endpoint: rdma.NewEndpoint("primary"), Cycles: &metrics.Cycles{}, Cost: cost,
	})
	popt := opt
	popt.Device = newDev(t)
	popt.Listener = p
	db, err := lsm.New(popt)
	if err != nil {
		t.Fatal(err)
	}
	p.SetDB(db)
	b, err := NewBackup(BackupConfig{
		RegionID: 1, ServerName: "backup", Mode: SendIndex,
		Device: newDev(t), Endpoint: rdma.NewEndpoint("backup"),
		Cycles: &metrics.Cycles{}, Cost: cost, LSM: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	Attach(p, b)
	t.Cleanup(p.DetachAll)
	return p, db, b
}

// testPairModel runs the model and returns how many filtered levels it
// compared.
func testPairModel(t *testing.T, keyOf func(int) string, newDev func(*testing.T) storage.Device, opt lsm.Options) int {
	type op struct {
		Kind  uint8 // 0..5: put, put, put, delete, delete, flush
		Key   uint16
		Value uint8
	}
	filtered := 0
	f := func(ops []op, seed int64) bool {
		opt := opt
		opt.Seed = seed
		p, db, b := modelPair(t, newDev, opt)
		defer db.Close()
		ref := map[string]string{}
		for _, o := range ops {
			key := keyOf(int(o.Key))
			var err error
			switch o.Kind % 6 {
			case 0, 1, 2:
				// 64-byte values: a run's log spans several segments.
				val := fmt.Sprintf("value-%03d-%054d", o.Value, 0)
				err = db.Put([]byte(key), []byte(val))
				ref[key] = val
			case 3, 4:
				err = db.Delete([]byte(key))
				delete(ref, key)
			case 5:
				err = db.Flush()
			}
			if err != nil {
				t.Logf("op %+v: %v", o, err)
				return false
			}
		}
		// The last L0 stays unflushed: promotion replays it from the
		// replicated log tail.
		if err := db.WaitIdle(); err != nil {
			t.Logf("WaitIdle: %v", err)
			return false
		}
		if err := p.Err(); err != nil {
			t.Logf("primary: %v", err)
			return false
		}
		if err := b.Err(); err != nil {
			t.Logf("backup: %v", err)
			return false
		}
		// The backup built each level's filter from the leaves it
		// rewrote, for the levels the primary's builder built one for:
		// bit for bit the primary's filter.
		primaryLevels := db.Levels()
		for i, st := range b.LevelStates(len(primaryLevels) + 1) {
			pst := primaryLevels[i]
			if st.NumKeys != pst.NumKeys || !st.Filter.Equal(pst.Filter) || (st.Filter != nil && st.NumKeys == 0) {
				t.Logf("L%d: backup holds %d keys, filter %v; primary %d keys; filters equal: %v",
					i+1, st.NumKeys, st.Filter != nil, pst.NumKeys, st.Filter.Equal(pst.Filter))
				return false
			}
			if st.Filter != nil {
				filtered++
			}
		}

		p.Detach(b)
		promoted, err := b.Promote()
		if err != nil {
			t.Logf("Promote: %v", err)
			return false
		}
		defer promoted.Close()
		for i := 0; i < 512; i++ {
			key := keyOf(i)
			got, found, err := promoted.Get([]byte(key))
			want, ok := ref[key]
			if err != nil || found != ok || string(got) != want {
				t.Logf("promoted Get(%q) = %q, %v, %v; want %q, %v", key, got, found, err, want, ok)
				return false
			}
		}
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		got := []string{}
		if err := promoted.Scan(nil, func(pair kv.Pair) bool {
			got = append(got, string(pair.Key))
			return ref[string(pair.Key)] == string(pair.Value)
		}); err != nil {
			t.Logf("promoted Scan: %v", err)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("promoted Scan saw %q, want %q", got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 20,
		Values: func(args []reflect.Value, r *rand.Rand) {
			ops := make([]op, 200+r.Intn(600))
			for i := range ops {
				ops[i] = op{Kind: uint8(r.Intn(250)), Key: uint16(r.Intn(1 << 16)), Value: uint8(r.Intn(250))}
			}
			args[0] = reflect.ValueOf(ops)
			args[1] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	return filtered
}
