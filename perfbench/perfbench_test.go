package main

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload so the self-test runs each one in about a second
// while keeping eviction (the window is smaller than the prefix).
func tiny(sp spec) spec {
	sp.prefix, sp.timed, sp.window = 400, 1500, 300
	return sp
}

func TestWorkloadsMatchReference(t *testing.T) {
	for _, sp := range specs {
		sp := tiny(sp)
		t.Run(sp.name, func(t *testing.T) {
			in, err := prepare(sp, 7)
			if err != nil {
				t.Fatal(err)
			}
			if in.ref.Results == 0 {
				t.Fatal("reference found no pairs; the check would be vacuous")
			}
			o, err := runTimed(in, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("timed run: %d of %d records failed: %v", o.failed, o.attempted, o.notes)
			}
			for name := range e2eUnits {
				// At this size a distributed run may finish before the
				// collector completes a cycle, leaving no live-heap reading.
				if o.metrics[name] <= 0 && !(name == "live_heap_mb" && sp.engine != textStream) {
					t.Errorf("%s = %v, want > 0", name, o.metrics[name])
				}
			}

			tr, err := runTraced(in, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 {
				t.Fatalf("traced run: %d records failed: %v", tr.failed, tr.notes)
			}
			if got, want := tr.counters["replay.results"], in.ref.Results; got != want {
				t.Errorf("replay found %d results, reference %d", got, want)
			}
			if got, want := tr.counters["replay.hash"], in.ref.Hash; got != want {
				t.Errorf("replay pair hash %x, reference %x", got, want)
			}
			for name := range layerUnits {
				if _, ok := tr.metrics[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			for name := range tr.metrics {
				if layerUnits[name] == "" {
					t.Errorf("per-layer metric %s has no unit", name)
				}
			}
		})
	}
}

func TestDistributedRefusesOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sp := range specs {
		if sp.engine == textStream {
			continue
		}
		if err := run(sp.name, 1, time.Millisecond, false, t.TempDir()); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("%s with GOMAXPROCS=1: got %v, want a refusal", sp.name, err)
		}
	}
}

// TestWrongReferenceFails checks that the correctness check can fail: with
// a corrupted reference every timed repetition must count as failed.
func TestWrongReferenceFails(t *testing.T) {
	for _, sp := range specs {
		sp := tiny(sp)
		t.Run(sp.name, func(t *testing.T) {
			in, err := prepare(sp, 7)
			if err != nil {
				t.Fatal(err)
			}
			in.ref.Hash++
			o, err := runTimed(in, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed == 0 {
				t.Fatalf("a wrong reference went unnoticed (%d attempted)", o.attempted)
			}
		})
	}
}
