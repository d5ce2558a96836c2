// Command clusterqbench is clusterq's benchmark: it runs one workload,
// checks every operation's output, and prints each metric by name and unit,
// ending with a one-line JSON summary. See bench/README.md.
//
// Usage:
//
//	clusterqbench -workload validate|plan|autoscale|overload [-seed 1] [-seconds 20] [-trace 0|1]
//	clusterqbench -write-pins [-pins-out bench/testdata/pins.json]
//	clusterqbench compare [-bench BENCHMARK.json] a.out... -- b.out...
package main

import (
	"os"

	"clusterq/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
