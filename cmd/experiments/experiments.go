// This file holds the reproduction harness: one experiment per figure
// and per evaluated claim of the paper, as indexed in DESIGN.md section
// 4. Each experiment builds the domains it needs, runs its workload, and
// returns a table; main prints every table, and the repository-root
// benchmarks exercise the same paths under testing.B.

package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

// Result is one experiment's reproduced table.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E3").
	ID string
	// Title summarizes the experiment.
	Title string
	// Source cites the paper figure or section reproduced.
	Source string
	// Headers and Rows form the table.
	Headers []string
	Rows    [][]string
	// Notes records observations (expected shape, caveats).
	Notes []string
}

// Config tunes experiment scale.
type Config struct {
	// Quick reduces workload sizes so the full suite runs in seconds
	// (used by tests); the default sizes are meant for cmd/experiments.
	Quick bool
}

// ops returns full unless Quick, then quick.
func (c Config) ops(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Runner is one experiment.
type Runner struct {
	ID  string
	Run func(Config) (Result, error)
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", runE1MultiDomain},
		{"E2", runE2InfrastructureOverhead},
		{"E3", runE3DuplicateSuppression},
		{"E4", runE4MessageEncapsulation},
		{"E5", runE5GatewayLoops},
		{"E6", runE6OperationIdentifiers},
		{"E7", runE7SingleGatewayFailure},
		{"E8", runE8GatewayFailover},
		{"E9", runE9ReplicationStyles},
		{"E10", runE10GatewayScalability},
		{"E11", runE11ReplicaConsistency},
		{"E12", runE12StateTransfer},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// FormatMarkdown renders a result as a GitHub-flavoured markdown table,
// for pasting into EXPERIMENTS.md.
func FormatMarkdown(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s (%s)\n\n", r.ID, r.Title, r.Source)
	b.WriteString("| " + strings.Join(r.Headers, " | ") + " |\n")
	rule := make([]string, len(r.Headers))
	for i := range rule {
		rule[i] = "---"
	}
	b.WriteString("| " + strings.Join(rule, " | ") + " |\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Format renders a result as an aligned text table.
func Format(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", r.ID, r.Title, r.Source)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Headers)
	rule := make([]string, len(r.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// newDomain builds an experiment domain with fast failure-detector
// timings.
func newDomain(name string, nodes int) (*domain.Domain, error) {
	return domain.New(domain.Config{
		Name:  name,
		Nodes: nodes,
		Totem: totem.Config{FailTimeout: 80 * time.Millisecond, GatherTimeout: 20 * time.Millisecond},
	})
}

// deployRegisters places a replicated RegisterApp and returns the
// replica instances.
func deployRegisters(d *domain.Domain, grp replication.GroupID, key string, style replication.Style, replicas int) ([]*experiments.RegisterApp, error) {
	var (
		mu   sync.Mutex
		apps []*experiments.RegisterApp
	)
	err := d.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
		Style:           style,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(key),
		TypeID:          "IDL:eternalgw/Register:1.0",
	}, func() (replication.Application, error) {
		mu.Lock()
		defer mu.Unlock()
		app := &experiments.RegisterApp{}
		apps = append(apps, app)
		return app, nil
	})
	if err != nil {
		return nil, err
	}
	return apps, nil
}

// settledOps waits, up to timeout, until every replica has executed at
// least atLeast operations and all report the same count, and returns the
// count of the first replica. Replicas of one group execute the same
// totally ordered sequence, so agreement means none is still catching up.
func settledOps(apps []*experiments.RegisterApp, atLeast int64, timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		n, agreed := apps[0].Ops(), true
		for _, a := range apps[1:] {
			agreed = agreed && a.Ops() == n
		}
		if agreed && n >= atLeast {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return apps[0].Ops()
}
