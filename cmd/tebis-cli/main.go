// Command tebis-cli is a line client for tebis-server: it forwards
// commands typed on stdin to the server and prints replies.
//
// Usage:
//
//	tebis-cli [-addr localhost:7625] [command...]
//	tebis-cli -top -nodes host:port,host:port [-interval 1s] [-once]
//
// With arguments, a single command is sent (e.g. `tebis-cli GET mykey`);
// without, an interactive loop reads commands from stdin.
//
// With -top, the client becomes tebis-top: a refreshing cluster health
// view that scrapes every node's /metrics, /debug/events, and /readyz
// and renders each node's readiness, admission state, replication
// retries, backup evictions, degraded flag, GC progress and index node
// cache, then the most recent journal events. -once renders a single
// frame and exits (for scripts).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"
)

func main() {
	addr := flag.String("addr", "localhost:7625", "tebis-server address")
	top := flag.Bool("top", false, "watch mode: render a refreshing cluster health table")
	nodes := flag.String("nodes", "", "comma-separated observability addresses for -top (host:port,...)")
	interval := flag.Duration("interval", time.Second, "refresh interval for -top")
	once := flag.Bool("once", false, "with -top, render one frame and exit")
	flag.Parse()

	if *top {
		var list []string
		for _, n := range strings.Split(*nodes, ",") {
			if n = strings.TrimSpace(n); n != "" {
				list = append(list, n)
			}
		}
		if err := runTop(os.Stdout, list, *interval, *once); err != nil {
			log.Fatal(err)
		}
		return
	}

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer conn.Close()

	if args := flag.Args(); len(args) > 0 {
		if err := roundTrip(conn, strings.Join(args, " ")); err != nil {
			log.Fatal(err)
		}
		return
	}

	in := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" {
			fmt.Print("> ")
			continue
		}
		if err := roundTrip(conn, line); err != nil {
			log.Fatal(err)
		}
		if strings.EqualFold(line, "QUIT") {
			return
		}
		fmt.Print("> ")
	}
}

// roundTrip sends one command and prints the reply lines (SCAN replies
// span multiple lines terminated by END).
func roundTrip(conn net.Conn, line string) error {
	if _, err := fmt.Fprintln(conn, line); err != nil {
		return err
	}
	if strings.EqualFold(strings.Fields(line)[0], "QUIT") {
		return nil
	}
	r := bufio.NewReader(conn)
	multi := strings.EqualFold(strings.Fields(line)[0], "SCAN")
	for {
		reply, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		fmt.Print(reply)
		if !multi || strings.HasPrefix(reply, "END") || strings.HasPrefix(reply, "ERR") {
			return nil
		}
	}
}
