// Command perfbench is the repository's benchmark. It runs one named
// workload through the library's public entry points, checks every result
// against an independent single-node reference, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced replay) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload enron-text --seed 1 --seconds 10 --trace 0
//
// README.md in this directory records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of the end-to-end and per-layer metrics, by name. The names and
// units here are the ones BENCHMARK.json declares.
var e2eUnits = map[string]string{
	"throughput_rps": "records/s",
	"cpu_us_per_rec": "us",
	"latency_p50_us": "us",
	"setup_s":        "s",
	"live_heap_mb":   "MB",
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(specNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long the timed repetitions run")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traced bool, outDir string) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	if sp.engine != textStream && runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("%s needs GOMAXPROCS >= 2 (have %d); with one processor it measures the scheduler", sp.name, runtime.GOMAXPROCS(0))
	}
	env := stamp(sp.name, seed, traced)

	t0 := time.Now()
	in, err := prepare(sp, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: inputs, reference and warm snapshots took %.1fs\n", time.Since(t0).Seconds())
	var o *outcome
	if traced {
		o, err = runTraced(in, outDir)
	} else {
		o, err = runTimed(in, budget)
	}
	if err != nil {
		return err
	}
	env.LoadEnd = loadAvg()

	printLine("env", env)
	printLine("counters", o.counters)
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := e2eUnits[n]
		if traced {
			unit = layerUnits[n]
		}
		if unit == "" {
			return fmt.Errorf("metric %s has no declared unit", n)
		}
		res.Metrics[n] = metric{Value: o.metrics[n], Unit: unit}
		fmt.Printf("metric %-36s %16.6g %-10s samples=%d\n", n, o.metrics[n], unit, o.samples[n])
	}
	for _, n := range o.notes {
		fmt.Println("note", n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// outcome is what a timed or traced run hands back for printing.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int
	counters          map[string]uint64
	notes             []string
}

func printLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding", tag+":", err)
		return
	}
	fmt.Println(tag, string(b))
}

// envStamp records where and how a result was measured.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
}

func stamp(workload string, seed int64, traced bool) *envStamp {
	return &envStamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      traced,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		LoadStart:  loadAvg(),
	}
}

// commit reads the checked-out commit from .git in the working directory,
// or reports "unknown" when the checkout is not a git repository.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// loadAvg returns the 1-minute load average, or -1 where /proc is absent.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var l float64
	if _, err := fmt.Sscan(string(b), &l); err != nil {
		return -1
	}
	return l
}
