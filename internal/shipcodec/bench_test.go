package shipcodec

import (
	"math/rand"
	"testing"
)

var benchSink []byte

// BenchmarkShipCodec is the package's own rung of the ship path: Encode
// and Decode over one leaf segment a Builder emitted (16 K benchmark
// keys, 4 KB nodes — what compactions ship) and over one value-log
// segment (what Sync ships), as ns/KB of image and frame bytes per
// image byte. benchmark/ladder.go's shipcodec.* rows time the same
// calls inside a cluster run; this one needs no cluster.
func BenchmarkShipCodec(b *testing.B) {
	for _, img := range []struct {
		name string
		raw  []byte
	}{
		{"index", indexImages(b, 4096, ycsbKeys(16<<10), 0, rand.New(rand.NewSource(51)))[0]},
		{"log", logImage(b)},
	} {
		frame, err := AppendPages(nil, Flate, img.raw, 4096)
		if err != nil {
			b.Fatal(err)
		}
		kb := float64(len(img.raw)) / 1024
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/kb, "ns/KB")
			b.ReportMetric(float64(len(frame))/float64(len(img.raw)), "frame/raw")
		}
		b.Run(img.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(img.raw)))
			for i := 0; i < b.N; i++ {
				if benchSink, err = AppendPages(nil, Flate, img.raw, 4096); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(img.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(img.raw)))
			for i := 0; i < b.N; i++ {
				if benchSink, err = Decode(frame, nil, 4096); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
}
