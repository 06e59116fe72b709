package main

import (
	"fmt"
	"sync"
	"time"

	"eternalgw/internal/metrics"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

// runE10GatewayScalability measures one gateway's throughput and latency
// as the number of concurrent unreplicated TCP clients grows (sections 1
// and 3.2: a gateway serves many clients, spawning one socket per client
// and keeping per-group client-identifier counters).
func runE10GatewayScalability(cfg Config) (Result, error) {
	per := cfg.ops(50, 10)
	clientCounts := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		clientCounts = []int{1, 4}
	}

	d, err := newDomain("ny", 3)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()
	if _, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, 2); err != nil {
		return Result{}, err
	}
	gw, err := d.AddGateway(2, "")
	if err != nil {
		return Result{}, err
	}

	var rows [][]string
	for _, clients := range clientCounts {
		lat := &metrics.Histogram{}
		tp := metrics.StartThroughput()
		var (
			wg    sync.WaitGroup
			errMu sync.Mutex
			first error
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := orb.Dial(gw.Addr())
				if err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
				defer func() { _ = conn.Close() }()
				for i := 0; i < per; i++ {
					start := time.Now()
					if _, err := conn.Call([]byte(expServerKey), "ops", nil, orb.InvokeOptions{}); err != nil {
						errMu.Lock()
						if first == nil {
							first = err
						}
						errMu.Unlock()
						return
					}
					lat.Record(time.Since(start))
				}
			}()
		}
		wg.Wait()
		if first != nil {
			return Result{}, first
		}
		tp.Add(clients * per)
		rows = append(rows, []string{
			fmt.Sprint(clients),
			fmt.Sprint(clients * per),
			fmt.Sprintf("%.0f", tp.PerSecond()),
			lat.Mean().Round(time.Microsecond).String(),
			lat.Percentile(99).Round(time.Microsecond).String(),
		})
	}
	st := gw.Stats()
	return Result{
		ID:      "E10",
		Title:   "Gateway scalability with concurrent unreplicated clients",
		Source:  "Sections 1, 3.2",
		Headers: []string{"clients", "ops", "ops/s", "mean latency", "p99"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("gateway totals: connections=%d requests=%d replies=%d", st.ConnectionsAccepted, st.RequestsReceived, st.RepliesReturned),
			"expected shape: throughput rises with client concurrency until the single totem ring serializing the domain saturates, then latency grows while throughput flattens",
		},
	}, nil
}
