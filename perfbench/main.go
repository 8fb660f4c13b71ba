// Command perfbench is the repository's end-to-end benchmark. It
// generates a seeded feed for one workload, drives the system only
// through its public APIs, checks every run's output against the
// sequential DSMS.Push reference and the paper's bounded-state promise,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, from untraced runs;
// with -trace 1 they are the per-layer ones, from a run that times the
// calls into each module. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	os.Exit(run1(os.Args[1:]))
}

func run1(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run: serve-auction, purge-dense or probe-wide")
	seed := fs.Int64("seed", 1, "generator seed")
	seconds := fs.Float64("seconds", runSeconds, "measured time per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	rundir := fs.String("rundir", ".bench_build/run", "directory for sockets and checkpoint files")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		b, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}
	spec := workloadByName(*wl)
	if spec == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if n := runtime.GOMAXPROCS(0); n > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS %d exceeds the %d CPUs available; refusing to run\n", n, runtime.NumCPU())
		return 2
	}
	if err := os.MkdirAll(*rundir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{spec: spec, seed: *seed, seconds: *seconds, traced: *trace == 1, rundir: *rundir,
		log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }}
	env := environment(r, *trace)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	var metrics map[string]float64
	var err error
	if err = r.prepare(); err == nil {
		if *trace == 1 {
			metrics, err = r.perLayer()
		} else {
			metrics, err = r.endToEnd()
		}
	}
	if err != nil {
		r.outcome("run", 0, err)
	}
	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
	}
	if metrics == nil {
		metrics = map[string]float64{}
	}
	if r.attempted > 0 {
		metrics["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	out := map[string]any{}
	for _, d := range defs {
		v := metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-40s %16.4f %s\n", d.Name, v, d.Unit)
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	// Measured metrics outside this run's declared set (the p99
	// latencies and failed_frac of an untraced run) are printed too.
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
	}
	for _, d := range append(endToEndMetrics, perLayerMetrics...) {
		if v, ok := metrics[d.Name]; ok && !declared[d.Name] {
			fmt.Printf("%-40s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	correct := len(r.errs) == 0
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
		correct = false
	}
	last, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Println(string(last))
	if !correct {
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

// environment is the stamp printed with every result.
func environment(r *run, trace int) map[string]any {
	sha, modified := "unknown", false
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"numcpu":       runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           goVersion,
		"git_sha":      sha,
		"git_modified": modified,
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"workload":     r.spec.name,
		"seed":         r.seed,
		"seconds":      r.seconds,
		"trace":        trace,
		"params":       r.spec.params,
		"partitions":   r.spec.partitions,
		"views":        r.spec.views,
		"closed_feed":  r.spec.closedN,
		"ladder_eps":   r.spec.ladder,
		"latency_rung": r.spec.ladder[r.spec.latencyRung],
		"limit_us":     r.spec.limitUs,
		"state_bound":  r.spec.stateBound,
	}
}
