package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"tebis/internal/integrity"
)

// readVStack builds one device of a stack under test, populated the
// same way every time: four segments of distinct bytes.
type readVStack struct {
	name  string
	build func(t *testing.T) Device
}

func readVStacks() []readVStack {
	fill := func(t *testing.T, dev Device, framed bool) []SegmentID {
		t.Helper()
		var segs []SegmentID
		for i := 0; i < 4; i++ {
			seg, err := dev.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			p := bytes.Repeat([]byte{byte(0x11 * (i + 1)), byte(i)}, 1000)
			for j := range p {
				p[j] += byte(j)
			}
			off := dev.Geometry().Pack(seg, 0)
			if framed {
				err = WriteFramed(dev, off, p, integrity.KindLog)
			} else {
				err = dev.WriteAt(off, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		return segs
	}
	mem := func(t *testing.T) *MemDevice {
		t.Helper()
		d, err := NewMemDevice(testSegSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	return []readVStack{
		{"mem", func(t *testing.T) Device {
			d := mem(t)
			fill(t, d, false)
			return d
		}},
		{"file", func(t *testing.T) Device {
			d, err := NewFileDevice(filepath.Join(t.TempDir(), "d.img"), testSegSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			fill(t, d, false)
			return d
		}},
		// The third segment is corrupted under its frame: its first read
		// fails verification, and every read after that fails too.
		{"verifying", func(t *testing.T) Device {
			m := mem(t)
			d := AsVerifying(m)
			segs := fill(t, d, true)
			d.Invalidate(segs[2])
			if err := m.WriteAt(m.Geometry().Pack(segs[2], 17), []byte{0xFF}); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		// Every third read is dropped, and reads of the fourth segment
		// fail.
		{"fault", func(t *testing.T) Device {
			d := NewFaultDevice(mem(t))
			segs := fill(t, d, false)
			geo := d.Geometry()
			d.InjectFault(func(op FaultOp, seq int, off Offset, p []byte) Fault {
				switch {
				case op != FaultRead:
				case geo.Segment(off) == segs[3]:
					return Fault{Action: FaultError}
				case seq%3 == 1:
					return Fault{Action: FaultDrop}
				}
				return Fault{}
			})
			return d
		}},
	}
}

// TestReadVIsReadAtOnEveryDevice: on every device, ReadV of a batch of
// ranges gives what ReadAt of the ranges one by one, stopping at the
// first error, gives — the same bytes, the same error at the same
// range, the same counters (and fault-hook verdicts) — for batches that
// read cleanly and for batches that meet an unallocated segment, a
// range crossing its segment's end, a corrupted segment or an injected
// fault in the middle.
func TestReadVIsReadAtOnEveryDevice(t *testing.T) {
	type rng struct {
		seg    SegmentID
		within int64
		n      int
	}
	batches := map[string][]rng{
		"clean":     {{1, 0, 8}, {2, 100, 300}, {1, 8, 8}, {2, 0, 0}, {1, 4000, 96}, {2, 7, 1}},
		"third":     {{1, 0, 8}, {2, 100, 300}, {3, 64, 8}, {1, 8, 8}, {3, 0, 32}},
		"fourth":    {{2, 0, 8}, {1, 0, 8}, {4, 5, 40}, {2, 8, 8}},
		"nosegment": {{1, 0, 8}, {2, 0, 16}, {99, 0, 8}, {1, 8, 8}},
		"overflow":  {{1, 0, 8}, {2, testSegSize - 4, 8}, {1, 8, 8}},
		"empty":     {},
	}
	for _, stack := range readVStacks() {
		for name, batch := range batches {
			t.Run(stack.name+"/"+name, func(t *testing.T) {
				one, vec := stack.build(t), stack.build(t)
				geo := one.Geometry()
				offs := make([]Offset, len(batch))
				bufsOne, bufsVec := make([][]byte, len(batch)), make([][]byte, len(batch))
				for i, r := range batch {
					offs[i] = geo.Pack(r.seg, r.within)
					bufsOne[i] = bytes.Repeat([]byte{0xEE}, r.n)
					bufsVec[i] = bytes.Repeat([]byte{0xEE}, r.n)
				}
				nOne, errOne := len(batch), error(nil)
				for i, off := range offs {
					if errOne = one.ReadAt(off, bufsOne[i]); errOne != nil {
						nOne = i
						break
					}
				}
				nVec, errVec := ReadV(vec, offs, bufsVec)

				if nVec != nOne || fmt.Sprint(errVec) != fmt.Sprint(errOne) {
					t.Fatalf("ReadV = %d ranges, %v; ReadAt one by one = %d, %v", nVec, errVec, nOne, errOne)
				}
				for _, typed := range []error{ErrBadSegment, ErrSegmentOverflow, ErrChecksum, ErrInjected} {
					if errors.Is(errVec, typed) != errors.Is(errOne, typed) {
						t.Fatalf("ReadV's %v and ReadAt's %v differ on %v", errVec, errOne, typed)
					}
				}
				for i := range batch {
					if !bytes.Equal(bufsVec[i], bufsOne[i]) {
						t.Fatalf("range %d: ReadV %x, ReadAt %x", i, bufsVec[i], bufsOne[i])
					}
				}
				if sv, so := vec.Stats(), one.Stats(); sv != so {
					t.Fatalf("ReadV left stats %+v, ReadAt one by one %+v", sv, so)
				}
				if fv, ok := vec.(*FaultDevice); ok {
					if sv, so := fv.FaultStats(), one.(*FaultDevice).FaultStats(); sv != so {
						t.Fatalf("ReadV left fault stats %+v, ReadAt one by one %+v", sv, so)
					}
				}
				// What went wrong stays wrong: a second read of the batch
				// fails the same way.
				if errOne != nil {
					n2, err2 := ReadV(vec, offs, bufsVec)
					if n2 != nVec || !sameTyped(err2, errVec) {
						t.Fatalf("ReadV again = %d, %v; first %d, %v", n2, err2, nVec, errVec)
					}
				}
			})
		}
	}
}

func sameTyped(a, b error) bool {
	for _, typed := range []error{ErrBadSegment, ErrSegmentOverflow, ErrChecksum, ErrInjected} {
		if errors.Is(a, typed) != errors.Is(b, typed) {
			return false
		}
	}
	return (a == nil) == (b == nil)
}

// TestReadVRacesFreeAndAlloc: vectored readers of a MemDevice run beside
// a goroutine that frees and re-allocates half the segments they read,
// and allocates more as it goes, growing the segment table across chunk
// boundaries. A range comes back with its segment's bytes, or with zeros
// once the segment was allocated afresh, and a batch stops with
// ErrBadSegment at a segment freed under it, or at an ID past the
// table's end. (raceReadsAgainstChurn holds ReadV of a verifying device
// to the same.) Run it under -race.
func TestReadVRacesFreeAndAlloc(t *testing.T) {
	dev, err := NewMemDevice(testSegSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := dev.Geometry()
	payload := func(seg SegmentID) []byte { return []byte(fmt.Sprintf("segment %08d payload", seg)) }
	var stable, churned []SegmentID
	for i := 0; i < 8; i++ {
		seg, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.WriteAt(geo.Pack(seg, 0), payload(seg)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			stable = append(stable, seg)
		} else {
			churned = append(churned, seg)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			n := len(payload(0))
			offs := make([]Offset, 6)
			segs := make([]SegmentID, 6)
			bufs := make([][]byte, 6)
			for i := range bufs {
				bufs[i] = make([]byte, n)
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range offs {
					switch {
					case j == len(offs)-1 && i%4 == 0:
						segs[j] = SegmentID(1<<31 + i)
					case rnd.Intn(2) == 0:
						segs[j] = stable[rnd.Intn(len(stable))]
					default:
						segs[j] = churned[rnd.Intn(len(churned))]
					}
					offs[j] = geo.Pack(segs[j], 0)
				}
				got, err := ReadV(dev, offs, bufs)
				if err != nil && !errors.Is(err, ErrBadSegment) || err == nil && got != len(offs) {
					errs <- fmt.Errorf("ReadV = %d, %v", got, err)
					return
				}
				for j := 0; j < got; j++ {
					if !bytes.Equal(bufs[j], payload(segs[j])) && !bytes.Equal(bufs[j], make([]byte, n)) {
						errs <- fmt.Errorf("range %d of segment %d read %q", j, segs[j], bufs[j])
						return
					}
				}
			}
		}(r)
	}
	churn := 3 << segChunkBits
	if testing.Short() {
		churn = 1 << segChunkBits
	}
	for i := 0; i < churn; i++ {
		seg := churned[i%len(churned)]
		if err := dev.Free(seg); err != nil {
			t.Fatal(err)
		}
		if again, err := dev.Alloc(); err != nil || again != seg {
			t.Fatalf("Alloc after Free = %d, %v, want %d", again, err, seg)
		}
		if _, err := dev.Alloc(); err != nil { // the table grows
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkReadV reads batches of sixteen 8-byte ranges — a scan
// batch's record headers — at random offsets in 64 MiB of segments,
// larger than a core's private caches, through a verifying in-memory
// device: one ReadV per batch against a ReadAt per range.
func BenchmarkReadV(b *testing.B) {
	const segSize, segs, batch = 1 << 22, 16, 16
	mem, err := NewMemDevice(segSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer mem.Close()
	dev := AsVerifying(mem)
	image := make([]byte, segSize)
	var ids []SegmentID
	for i := 0; i < segs; i++ {
		seg, err := dev.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.WriteFramedAt(dev.Geometry().Pack(seg, 0), image, integrity.KindLog); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, seg)
	}
	rnd := rand.New(rand.NewSource(1))
	offs := make([]Offset, 1<<16)
	for i := range offs {
		offs[i] = dev.Geometry().Pack(ids[rnd.Intn(segs)], rnd.Int63n(dev.UsableCapacity()-8))
	}
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	for _, seg := range ids { // a segment's first read verifies it
		if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), bufs[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("ReadAt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			at := i * batch % len(offs)
			for j, off := range offs[at : at+batch] {
				if err := dev.ReadAt(off, bufs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ReadV", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			at := i * batch % len(offs)
			if _, err := ReadV(dev, offs[at:at+batch], bufs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
