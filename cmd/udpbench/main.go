// Command udpbench drives a multi-process fault tolerance domain (one
// ftdomaind -node per ring member) from the outside, as real IIOP
// clients: a timed multi-client echo throughput phase that reports its
// result as a `go test -bench`-formatted line (so scripts/benchjson.awk
// can aggregate it into BENCH_udp.json next to the in-process rows), and
// an exactly-once audit phase that appends unique markers through the
// gateway and then proves, from the replicated register's own state,
// that every append executed exactly once.
//
// scripts/benchudp.sh and scripts/udpsmoke.sh are the harnesses that
// launch the node processes and run this client against them.
//
// Usage:
//
//	udpbench -freeports 4                      # print free localhost UDP ports
//	udpbench -addr 127.0.0.1:9021 -clients 16 -duration 2s \
//	         -name BenchmarkUDPMultiProcess/ring/r=3/c=16/small
//	udpbench -addr 127.0.0.1:9021 -clients 8 -audit
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/experiments"
	"eternalgw/internal/orb"
)

const (
	demoKey     = "demo/register"
	callTimeout = 15 * time.Second
)

func main() {
	var (
		freePorts = flag.Int("freeports", 0, "print this many free localhost UDP ports and exit (registry construction for the launch scripts)")
		addr      = flag.String("addr", "", "gateway address to drive")
		clients   = flag.Int("clients", 8, "concurrent client connections, each with one request in flight")
		duration  = flag.Duration("duration", 2*time.Second, "timed length of the throughput phase")
		warmup    = flag.Duration("warmup", 250*time.Millisecond, "untimed warmup before the throughput phase")
		payload   = flag.Int("payload", 64, "echo payload bytes in the throughput phase")
		name      = flag.String("name", "", "benchmark row name; when set, run the throughput phase and print a go test -bench formatted line")
		audit     = flag.Bool("audit", false, "run the exactly-once audit phase (append unique markers, then verify count and content)")
		appends   = flag.Int("audit-appends", 50, "audit appends per client")
	)
	flag.Parse()
	if *freePorts > 0 {
		if err := printFreePorts(*freePorts); err != nil {
			fmt.Fprintln(os.Stderr, "udpbench:", err)
			os.Exit(1)
		}
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "udpbench: -addr required (or -freeports)")
		os.Exit(2)
	}
	if err := run(*addr, *clients, *duration, *warmup, *payload, *name, *audit, *appends); err != nil {
		fmt.Fprintln(os.Stderr, "udpbench:", err)
		os.Exit(1)
	}
}

// printFreePorts binds n ephemeral localhost UDP sockets at once (so the
// ports are distinct), prints their port numbers, then releases them.
func printFreePorts(n int) error {
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return err
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		fmt.Println(c.LocalAddr().(*net.UDPAddr).Port)
	}
	return nil
}

func run(addr string, clients int, duration, warmup time.Duration, payload int, name string, audit bool, appends int) error {
	if clients <= 0 {
		return fmt.Errorf("need at least one client")
	}
	conns := make([]*orb.Conn, clients)
	for i := range conns {
		c, err := orb.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		defer func() { _ = c.Close() }()
		conns[i] = c
	}
	opts := orb.InvokeOptions{Timeout: callTimeout}
	if name != "" {
		if err := throughput(conns, duration, warmup, payload, name); err != nil {
			return err
		}
	}
	if audit {
		if err := auditExactlyOnce(conns, appends, opts); err != nil {
			return err
		}
	}
	return nil
}

// throughput drives every connection with one echo in flight until the
// deadline and prints the aggregate as a benchmark line.
func throughput(conns []*orb.Conn, duration, warmup time.Duration, payload int, name string) error {
	args := experiments.OctetSeqArg(make([]byte, payload))
	opts := orb.InvokeOptions{Timeout: callTimeout}
	phase := func(d time.Duration) (uint64, time.Duration, error) {
		var (
			total    atomic.Uint64
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		deadline := time.Now().Add(d)
		start := time.Now()
		for _, c := range conns {
			wg.Add(1)
			go func(c *orb.Conn) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if _, err := c.Call([]byte(demoKey), "echo", args, opts); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					total.Add(1)
				}
			}(c)
		}
		wg.Wait()
		return total.Load(), time.Since(start), firstErr
	}
	if warmup > 0 {
		if _, _, err := phase(warmup); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	ops, elapsed, err := phase(duration)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	if ops == 0 {
		return fmt.Errorf("throughput: no operations completed in %v", duration)
	}
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(ops)
	mbPerSec := float64(ops) * float64(payload) / elapsed.Seconds() / 1e6
	// The exact shape `go test -bench` prints, so benchjson.awk and
	// benchcompare-style tooling parse it unmodified.
	fmt.Printf("%s-%d \t%8d\t%12.1f ns/op\t%8.2f MB/s\n",
		name, runtime.GOMAXPROCS(0), ops, nsPerOp, mbPerSec)
	return nil
}

// auditExactlyOnce has every client append a unique marker sequence
// through the gateway, then checks against the replicated register's own
// state that the operation count advanced by exactly the number of
// appends and that every marker appears exactly once in the register —
// no lost appends, no duplicated executions, over a real lossy network.
func auditExactlyOnce(conns []*orb.Conn, appends int, opts orb.InvokeOptions) error {
	before, err := opsCount(conns[0], opts)
	if err != nil {
		return fmt.Errorf("audit baseline: %w", err)
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *orb.Conn) {
			defer wg.Done()
			for j := 0; j < appends; j++ {
				marker := fmt.Sprintf("c%02dx%04d;", i, j)
				if _, err := c.Call([]byte(demoKey), "append", experiments.OctetSeqArg([]byte(marker)), opts); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("append %s: %w", marker, err)
					}
					errMu.Unlock()
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	after, err := opsCount(conns[0], opts)
	if err != nil {
		return fmt.Errorf("audit recount: %w", err)
	}
	want := int64(len(conns) * appends)
	if after-before != want {
		return fmt.Errorf("audit: ops advanced by %d, want %d (lost or duplicated executions)", after-before, want)
	}
	r, err := conns[0].Call([]byte(demoKey), "read", nil, opts)
	if err != nil {
		return fmt.Errorf("audit read: %w", err)
	}
	value := string(r.ReadOctetSeq())
	if err := r.Err(); err != nil {
		return err
	}
	for i := range conns {
		for j := 0; j < appends; j++ {
			marker := fmt.Sprintf("c%02dx%04d;", i, j)
			if n := strings.Count(value, marker); n != 1 {
				return fmt.Errorf("audit: marker %s appears %d times, want exactly once", marker, n)
			}
		}
	}
	fmt.Printf("udpbench: audit ok: %d appends executed exactly once (ops %d -> %d)\n", want, before, after)
	return nil
}

// opsCount reads the register's operation counter.
func opsCount(c *orb.Conn, opts orb.InvokeOptions) (int64, error) {
	r, err := c.Call([]byte(demoKey), "ops", nil, opts)
	if err != nil {
		return 0, err
	}
	n := r.ReadLongLong()
	return n, r.Err()
}
