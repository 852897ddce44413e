// e2ebench is this repository's benchmark: it builds and spawns one
// aimserver child per workload, drives it over loopback TCP through the
// system's own client tier, prints every metric by name and unit, checks the
// outputs, and writes one JSON result per run. See README.md.
//
//	go run -C e2ebench .                         all four workloads, end to end
//	go run -C e2ebench . -trace 1                per-layer metrics instead
//	go run -C e2ebench . -runs 10 -out results/x record a result set
//	go run -C e2ebench . -compare A B            compare two result sets
//	bash e2ebench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                             one run, the driver's contract
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	// The host has two cores; the generator may use both, like the server.
	runtime.GOMAXPROCS(2)
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the event and query streams (the server's rule seed stays 42)")
		seconds      = flag.Int("seconds", 0, "timed window in seconds (default 10, BENCHMARK.json's run_seconds; 2 with -quick)")
		trace        = flag.Int("trace", 0, "0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
		runs         = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out          = flag.String("out", "", "directory to write one result file per run into (relative to the repository root)")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare A B")
		quick        = flag.Bool("quick", false, "self-test: the small 'quick' workload, 2 s window")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: e2ebench -compare A B")
			return 2
		}
		return compareSets(flag.Arg(0), flag.Arg(1))
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	// Every exit path removes the child and its temp dirs: normal return,
	// failure, and signals.
	defer janitor.run()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		janitor.run()
		os.Exit(130)
	}()

	var todo []spec
	switch {
	case *quick:
		todo = []spec{quickWorkload}
		if *seconds == 0 {
			*seconds = 2
		}
	case *workloadName != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		todo = []spec{w}
	default:
		todo = workloads
	}
	if *seconds == 0 {
		*seconds = 10
	}
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds and -runs must be at least 1")
		return 2
	}

	bin, buildTime, err := buildServer(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	fmt.Printf("build_s %.3f s (go build ./cmd/aimserver; not part of setup_s)\n", buildTime.Seconds())
	fmt.Printf("flush policy: %s\n", flushPolicy)
	outDir := *out
	if outDir != "" && !filepath.IsAbs(outDir) {
		outDir = filepath.Join(root, outDir)
	}

	exit := 0
	var last *result
	for _, w := range todo {
		for i := 0; i < *runs; i++ {
			cfg := runConfig{
				w: w, seed: *seed + int64(i), seconds: *seconds, trace: *trace != 0,
				outDir: outDir, root: root, bin: bin, buildS: buildTime.Seconds(), quick: *quick,
			}
			res, err := runOnce(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v\n", w.Name, cfg.seed, err)
				return 1
			}
			printResult(res)
			if res.Trace {
				printBreakdown(res, w)
			}
			if !res.Correct {
				exit = 1
			}
			last = res
		}
	}
	// The driver reads the last line of one run: exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return exit
}

// printResult prints every metric of a run by name with its unit.
func printResult(res *result) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Printf("\n== %s  seed %d  window %d s  (%s)\n", res.Workload, res.Seed, res.Seconds, kind)
	fmt.Printf("   %s\n", res.ServerFlags)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	absent := map[string]bool{}
	for _, name := range res.Absent {
		absent[name] = true
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		note := ""
		if absent[d.Name] {
			note = "  (absent: the server exports no such series on this workload)"
		}
		fmt.Printf("   %-34s %16.4f %s%s\n", d.Name, v.Value, v.Unit, note)
	}
	var keys []string
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, res.Samples[k]))
	}
	fmt.Printf("   samples: %s\n", strings.Join(parts, " "))
	for _, c := range res.ChecksFailed {
		fmt.Printf("   CHECK FAILED %s: %s\n", c.Name, c.Detail)
	}
	fmt.Printf("   checks: %d run, %d failed; operations: %d attempted, %d failed (failed_frac %.6f)\n",
		res.ChecksRun, len(res.ChecksFailed), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if res.FirstErr != "" {
		fmt.Printf("   first error: %s\n", res.FirstErr)
	}
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}
