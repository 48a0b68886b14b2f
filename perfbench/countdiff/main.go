// Command countdiff compares the exact work counters of two perfbench
// outputs and exits 1 if any counter differs:
//
//	bash perfbench/run.sh --workload aol-inproc-k2 --seed 1 > a.txt
//	bash perfbench/run.sh --workload aol-inproc-k2 --seed 1 > b.txt
//	(cd perfbench && go run ./countdiff ../a.txt ../b.txt)
//
// Counters are deterministic for one workload and seed (results, pair
// hash, candidates, verify steps, bytes, tuples, kernel mix), so any
// change between two commits is a change in the work the program does.
// Counters present in only one output are listed; they fail the
// comparison unless the outputs come from different --trace modes, since
// only traced runs carry the replay's counters.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

type output struct {
	env struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
	}
	counters map[string]uint64
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: countdiff OLD NEW")
		os.Exit(2)
	}
	a, err := load(os.Args[1])
	if err == nil {
		var b *output
		if b, err = load(os.Args[2]); err == nil {
			if diff(a, b) {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "countdiff:", err)
	os.Exit(2)
}

func load(path string) (*output, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	o := &output{}
	var sawEnv, sawCounters bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		tag, body, _ := strings.Cut(sc.Text(), " ")
		switch tag {
		case "env":
			sawEnv = json.Unmarshal([]byte(body), &o.env) == nil
		case "counters":
			sawCounters = json.Unmarshal([]byte(body), &o.counters) == nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !sawEnv || !sawCounters {
		return nil, fmt.Errorf("%s: no env and counters lines", path)
	}
	return o, nil
}

// diff prints every difference and reports whether the comparison fails.
func diff(a, b *output) bool {
	failed := false
	if a.env.Workload != b.env.Workload || a.env.Seed != b.env.Seed {
		fmt.Printf("different runs: %s seed %d vs %s seed %d\n", a.env.Workload, a.env.Seed, b.env.Workload, b.env.Seed)
		return true
	}
	keys := map[string]bool{}
	for k := range a.counters {
		keys[k] = true
	}
	for k := range b.counters {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	same := 0
	for _, k := range names {
		x, inA := a.counters[k]
		y, inB := b.counters[k]
		switch {
		case inA && inB && x != y:
			fmt.Printf("%-28s %d -> %d\n", k, x, y)
			failed = true
		case inA != inB:
			fmt.Printf("%-28s only in %s\n", k, map[bool]string{true: "old", false: "new"}[inA])
			if a.env.Trace == b.env.Trace {
				failed = true
			}
		default:
			same++
		}
	}
	if !failed {
		fmt.Printf("%s seed %d: %d shared counters identical\n", a.env.Workload, a.env.Seed, same)
	}
	return failed
}
