// Command croesus is the one binary of the Croesus reproduction. Its
// subcommands cover the paper's three tiers (Figure 1) — camera client,
// edge and cloud, each as a process — and the tools around them:
//
//	croesus cluster -scenario f.json   # a scenario's fleet on the simulator
//	croesus fleet -scenario f.json     # the same scenario on real processes
//	croesus edge | cloud | client      # one process of a socket deployment
//	croesus trace a.jsonl b.jsonl      # merge and check per-process traces
//	croesus bench -run figure3         # the paper's tables and figures
//
// `croesus <command> -h` lists a command's flags. croesus fleet spawns this
// same executable as its edge, cloud and client processes.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// commands are the subcommands, in the order the usage lists them. Each
// parses its own flags from args and returns its exit code: 0 success,
// 1 a failed run, 2 a usage error.
var commands = []struct {
	name, about string
	run         func(args []string, stdout, stderr io.Writer) int
}{
	{"cluster", "run a scenario's fleet on the simulator and print its report", runCluster},
	{"fleet", "run a scenario's fleet on real edge, cloud and client processes", runFleet},
	{"edge", "serve one edge node over sockets", runEdge},
	{"cloud", "serve the cloud validator over sockets", runCloud},
	{"client", "stream one camera's video to an edge", runClient},
	{"trace", "merge per-process span streams into one checked trace", runTrace},
	{"bench", "regenerate the paper's evaluation tables", runBench},
}

// run dispatches args[0] to its subcommand; without one it prints the
// usage, and exits 2 unless help was asked for.
func run(args []string, stdout, stderr io.Writer) int {
	code := 2
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		switch args[0] {
		case "-h", "-help", "--help", "help":
			code = 0
		default:
			fmt.Fprintf(stderr, "croesus: unknown command %q\n", args[0])
		}
	}
	fmt.Fprintln(stderr, "usage: croesus <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.about)
	}
	return code
}
