// Command benchmark is the repository's benchmark: four workloads over the
// simulated and the loopback-TCP deployment, nine end-to-end metrics and a
// per-layer budget measured from outside the program. See README.md in this
// directory for the glossary; BENCHMARK.json at the repository root names
// every metric, its unit and its regression bound.
//
//	go run ./benchmark                 every workload, 5 fresh-process repeats each,
//	                                   micro-drivers and one traced repeat per workload
//	go run ./benchmark -selftest       the end-to-end suite twice; fails if the two disagree
//	go run ./benchmark -workload sim_fleet -seed 7 -seconds 20 -trace 0
//	                                   one measurement, one JSON object on the last line
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "measure one workload and print one JSON result (sim_fleet, sim_sharded, tcp_paced, tcp_saturate)")
		seed     = flag.Int64("seed", 42, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 0, "with -workload: keep starting fresh-process repeats for this long (0: exactly 5)")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics (micro-drivers, one traced repeat)")
		selftest = flag.Bool("selftest", false, "run the end-to-end suite twice and fail if any metric's two medians differ by more than its bound")
		short    = flag.Bool("short", false, "smoke-test sizes: seconds instead of minutes, numbers meaningless")

		child = flag.String("child", "", "internal: run one repeat on the inputs in this directory")
		micro = flag.Bool("micro", false, "internal: run the micro-drivers in this process")
		procs = flag.Int("procs", 0, "internal: GOMAXPROCS of a child")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = runChild(*child, *trace == 1, *procs)
	case *micro:
		err = runMicro(*procs, *short)
	default:
		var b *bench
		if b, err = newBench("", *short); err != nil {
			break
		}
		switch {
		case *workload != "":
			err = b.contract(*workload, *seed, *seconds, *trace == 1)
		case *selftest:
			err = b.selftest(*seed)
		default:
			err = b.suite(*seed)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
