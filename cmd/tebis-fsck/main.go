// Command tebis-fsck checks a file-backed Tebis device image for
// corruption (DESIGN.md "Storage integrity").
//
// Usage:
//
//	tebis-fsck [-segment 2097152] [-recover] [-space] [-q] /path/to/tebis.img
//
// The default pass is read-only: every framed segment is re-verified
// against its stored CRC32C trailer and failures are listed; the image
// is not modified. With -recover, the crash-recovery path runs first —
// torn tail segments are truncated, orphaned index segments reclaimed,
// and the surviving log replayed — then the recovered image is
// scrubbed. -recover mutates the image; take a copy first if the image
// is evidence. -space prints a read-only space report instead: each
// value-log segment's live and dead bytes, and the index segments'
// count, node bytes and slack.
//
// Exit status: 0 clean, 1 corruption found, 2 the check could not run
// (unreadable image, mid-log corruption during -recover).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tebis/internal/fsck"
)

func main() {
	var (
		segSize = flag.Int64("segment", 2<<20, "segment size the image was written with")
		recover = flag.Bool("recover", false, "run crash recovery (truncates torn tail; mutates the image)")
		space   = flag.Bool("space", false, "print a read-only space report (per-segment value-log live/dead bytes, index slack) and exit")
		quiet   = flag.Bool("q", false, "suppress per-segment progress")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tebis-fsck [-segment N] [-recover] [-space] [-q] <image>")
		os.Exit(2)
	}

	if *space {
		rep, err := fsck.Space(fsck.Options{Path: flag.Arg(0), SegmentSize: *segSize})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tebis-fsck: %v\n", err)
			os.Exit(2)
		}
		for _, s := range rep.Segments {
			fmt.Printf("segment %d (seq %d): %d B used, %d B live, %d B dead (%.0f%%)\n",
				s.Seg, s.Seq, s.Total, s.Live, s.Dead, 100*s.DeadRatio())
		}
		fmt.Printf("log head %#x tail %#x: %d live keys, %d B live, %d B dead across %d segments\n",
			uint64(rep.Head), uint64(rep.Tail), rep.Keys, rep.Live, rep.Dead, len(rep.Segments))
		fmt.Printf("index: %d segments, %d B of nodes, %d B slack\n",
			rep.Index.Segments, rep.Index.Payload, rep.Index.Slack)
		return
	}

	var logw io.Writer = os.Stdout
	if *quiet {
		logw = nil
	}
	res, err := fsck.Run(fsck.Options{
		Path:        flag.Arg(0),
		SegmentSize: *segSize,
		Recover:     *recover,
		Log:         logw,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tebis-fsck: %v\n", err)
		os.Exit(2)
	}
	if !res.Clean() {
		fmt.Fprintf(os.Stderr, "tebis-fsck: %s: %d of %d segments corrupt\n",
			flag.Arg(0), len(res.Findings), res.Scanned)
		os.Exit(1)
	}
	fmt.Printf("tebis-fsck: %s: clean (%d segments)\n", flag.Arg(0), res.Scanned)
}
