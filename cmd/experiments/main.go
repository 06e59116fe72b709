// Command experiments runs the paper-reproduction suite and prints one
// table per figure/section, as indexed in DESIGN.md section 4 and
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments            # run everything at full scale
//	experiments -quick     # reduced workloads (seconds instead of minutes)
//	experiments -run E3,E8 # only the named experiments
//
// The paper is a design paper without measured tables, so "reproducing"
// an experiment means demonstrating the mechanism each figure describes
// and measuring its behaviour on this implementation (absolute numbers
// reflect the in-process simulation, not the authors' 1990s testbed; the
// shapes are what carries over — see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced workloads")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavoured markdown tables")
	flag.Parse()
	if err := realMain(*quick, *run, *markdown); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(quick bool, run string, markdown bool) error {
	cfg := Config{Quick: quick}
	var selected []Runner
	if run == "" {
		selected = All()
	} else {
		for _, id := range strings.Split(run, ",") {
			r, ok := ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, r)
		}
	}
	failures := 0
	for _, r := range selected {
		start := time.Now()
		res, err := r.Run(cfg)
		if err != nil {
			failures++
			fmt.Printf("%s FAILED after %v: %v\n\n", r.ID, time.Since(start).Round(time.Millisecond), err)
			continue
		}
		if markdown {
			fmt.Print(FormatMarkdown(res))
			fmt.Printf("\n*(completed in %v)*\n\n", time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Print(Format(res))
			fmt.Printf("(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}
