package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"tebis/internal/integrity"
)

func TestSegmentTableGrowsByUse(t *testing.T) {
	var tab SegmentTable[int]
	if tab.Load(0) != nil || tab.Load(1<<31) != nil || tab.dir.Load() != nil {
		t.Fatal("an empty table has entries or a directory")
	}
	tab.Store(7, nil) // unpublishing past the end grows nothing
	if tab.dir.Load() != nil {
		t.Fatal("a nil Store past the end grew the table")
	}
	one, two := 1, 2
	tab.Store(3, &one)
	tab.Store(1<<segChunkBits+5, &two)
	far := SegmentID(10<<segChunkBits + 1)
	tab.Store(far, &one) // allocates its own chunk, not the ones before it
	chunks := 0
	for _, c := range *tab.dir.Load() {
		if c != nil {
			chunks++
		}
	}
	if n := len(*tab.dir.Load()); n != 11 || chunks != 3 {
		t.Fatalf("directory of %d with %d chunks, want 11 with 3", n, chunks)
	}
	if tab.Load(3) != &one || tab.Load(1<<segChunkBits+5) != &two || tab.Load(far) != &one || tab.Load(4) != nil {
		t.Fatal("Load does not return what Store published")
	}
	if tab.Load(5<<segChunkBits) != nil || tab.Load(11<<segChunkBits) != nil || tab.Load(^SegmentID(0)) != nil {
		t.Fatal("an ID in no chunk, or past the end, has an entry")
	}
	tab.Store(5<<segChunkBits, nil) // unpublishing in a missing chunk allocates nothing
	if (*tab.dir.Load())[5] != nil {
		t.Fatal("a nil Store allocated a chunk")
	}
	tab.Store(3, &two) // replacing an entry does not count it twice
	if ids := tab.IDs(); tab.Len() != 3 || !slices.Equal(ids, []SegmentID{3, 1<<segChunkBits + 5, far}) {
		t.Fatalf("Len %d, IDs %v", tab.Len(), ids)
	}
	tab.Store(3, nil)
	tab.Store(3, nil)
	if tab.Len() != 2 || tab.Load(3) != nil {
		t.Fatalf("after unpublishing 3: Len %d", tab.Len())
	}
	tab.Reset()
	if tab.Len() != 0 || tab.Load(1<<segChunkBits+5) != nil || len(tab.IDs()) != 0 {
		t.Fatal("Reset left entries")
	}
}

// TestReadsRaceAllocFreeInvalidate: readers of sealed segments run
// beside a goroutine that allocates, writes, frees and invalidates
// segments — growing the table across chunk boundaries as it goes — and
// beside reads of IDs past the table's end, one at a time and in a
// vectored read. Every read returns the right bytes or ErrBadSegment,
// and once the device closes, ErrClosed.
// Run it under -race.
func TestReadsRaceAllocFreeInvalidate(t *testing.T) {
	for _, name := range []string{"mem", "file"} {
		t.Run(name, func(t *testing.T) {
			var raw Device
			var err error
			if name == "mem" {
				raw, err = NewMemDevice(testSegSize, 0)
			} else {
				raw, err = NewFileDevice(filepath.Join(t.TempDir(), "d.img"), testSegSize, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			raceReadsAgainstChurn(t, AsVerifying(raw))
		})
	}
}

func raceReadsAgainstChurn(t *testing.T, dev *VerifyingDevice) {
	geo := dev.Geometry()
	payload := func(seg SegmentID) []byte { return []byte(fmt.Sprintf("segment %08d payload", seg)) }
	var sealed []SegmentID
	for i := 0; i < 8; i++ {
		seg, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.WriteFramedAt(geo.Pack(seg, 0), payload(seg), integrity.KindLog); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, seg)
	}

	churn := 3 << segChunkBits
	if testing.Short() {
		churn = 1 << segChunkBits
	}
	stop := make(chan struct{})
	var readers, writer sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			buf, buf2 := make([]byte, len(payload(0))), make([]byte, len(payload(0)))
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seg := sealed[i%len(sealed)]
				past := SegmentID(1<<31 + i)
				if i%2 == 1 { // the sealed segment and the one past the end in one ReadV
					got, err := ReadV(dev, []Offset{geo.Pack(seg, 0), geo.Pack(past, 0)}, [][]byte{buf, buf2})
					if errors.Is(err, ErrClosed) {
						continue
					}
					if got != 1 || !errors.Is(err, ErrBadSegment) || !bytes.Equal(buf, payload(seg)) {
						errs <- fmt.Errorf("ReadV of sealed segment %d and segment %d = %d, %q, %v", seg, past, got, buf, err)
						return
					}
					continue
				}
				err := dev.ReadAt(geo.Pack(seg, 0), buf)
				if errors.Is(err, ErrClosed) {
					continue
				}
				if err != nil || !bytes.Equal(buf, payload(seg)) {
					errs <- fmt.Errorf("read of sealed segment %d = %q, %v", seg, buf, err)
					return
				}
				if err := dev.ReadAt(geo.Pack(past, 0), buf); !errors.Is(err, ErrBadSegment) && !errors.Is(err, ErrClosed) {
					errs <- fmt.Errorf("read of segment %d past the table's end = %v", past, err)
					return
				}
			}
		}(r)
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		var held []SegmentID
		for i := 0; i < churn; i++ {
			seg, err := dev.Alloc()
			if err != nil {
				errs <- err
				return
			}
			if err := dev.WriteFramedAt(geo.Pack(seg, 0), payload(seg), integrity.KindIndex); err != nil {
				errs <- err
				return
			}
			held = append(held, seg)
			dev.Invalidate(sealed[i%len(sealed)])
			if i%3 == 2 { // free one in three: IDs are reused and the table still grows
				if err := dev.Free(held[0]); err != nil {
					errs <- err
					return
				}
				held = held[1:]
			}
		}
	}()
	writer.Wait()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // reads after the close
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
