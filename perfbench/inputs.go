package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	ssjoin "repro"
	"repro/internal/bundle"
	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"
)

// engine names the entry point a workload drives.
type engine int

const (
	textStream engine = iota // ssjoin.TextStream, one caller
	inProcess                // topology.Run, the engine behind ssjoin.RunDistributed
	tcpFleet                 // remote.RunWithOpts against loopback remote.ServeWorkerMonitored listeners
)

// spec fixes one workload: its engine, generator profile, join parameters,
// and how many records warm the window and how many each timed repetition
// streams.
type spec struct {
	name    string
	engine  engine
	profile func(seed int64) workload.Profile
	tau     float64
	window  int64
	workers int
	prefix  int // records streamed before the warm snapshot
	timed   int // records per timed repetition
}

var specs = []spec{
	{name: "enron-text", engine: textStream, profile: workload.EnronLike, tau: 0.7, window: 10_000, workers: 1, prefix: 10_000, timed: 30_000},
	{name: "aol-inproc-k2", engine: inProcess, profile: workload.AOLLike, tau: 0.8, window: 5_000, workers: 2, prefix: 20_000, timed: 300_000},
	{name: "tweet-tcp-k2", engine: tcpFleet, profile: workload.TweetLike, tau: 0.8, window: 20_000, workers: 2, prefix: 40_000, timed: 300_000},
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(specNames(), ", "))
}

func (s spec) params() filter.Params {
	return filter.Params{Func: similarity.Jaccard, Threshold: s.tau}
}

func (s spec) config() ssjoin.Config {
	return ssjoin.Config{Threshold: s.tau, Function: ssjoin.Jaccard, Algorithm: ssjoin.Bundle, WindowRecords: s.window}
}

// bundleConfig is the bundle configuration the library builds from a
// Config with every knob at its default (kernel auto, verify collect).
func bundleConfig() (bundle.Config, error) {
	kern, err := similarity.ParseKernel("")
	if err != nil {
		return bundle.Config{}, err
	}
	vm, err := bundle.ParseVerifyMode("")
	if err != nil {
		return bundle.Config{}, err
	}
	return bundle.Config{Kernel: similarity.KernelConfig{Mode: kern}, VerifyMode: vm}, nil
}

// inputs is everything a workload needs that is made before the clock
// starts: generated records, their text rendering, the warm window
// snapshots and the reference answer for the timed records.
type inputs struct {
	spec   spec
	bcfg   bundle.Config
	prefix []*record.Record
	timed  []*record.Record
	texts  []string // enron-text: rendering of timed records
	ref    answer

	textSnap []byte   // enron-text: TextStream snapshot after the prefix
	snaps    [][]byte // distributed: per-worker window checkpoints
	hist     partition.Histogram
	part     partition.Partition
}

// answer is a result count with an order-insensitive hash of the pairs.
type answer struct {
	Results uint64
	Hash    uint64
}

func (a *answer) add(x, y uint64) {
	if x > y {
		x, y = y, x
	}
	a.Results++
	a.Hash += mix64(x*0x9e3779b97f4a7c15 ^ mix64(y))
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func prepare(sp spec, seed int64) (*inputs, error) {
	bcfg, err := bundleConfig()
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: sp, bcfg: bcfg}
	all := workload.NewGenerator(sp.profile(seed)).Generate(sp.prefix + sp.timed)
	in.prefix, in.timed = all[:sp.prefix], all[sp.prefix:]
	in.ref = reference(sp, in.prefix, in.timed)
	if sp.engine == textStream {
		return in, in.warmText()
	}
	return in, in.warmDistributed()
}

// reference joins prefix and timed records with the prefix-filter joiner,
// an implementation independent of the bundle index under test, and keeps
// the pairs whose probing record is timed. The length-based distribution
// emits each pair exactly once, so it serves the distributed runs too.
func reference(sp spec, prefix, timed []*record.Record) answer {
	j := local.New(local.Prefix, local.Options{Params: sp.params(), Window: window.Count{N: sp.window}})
	for _, r := range prefix {
		j.Step(r, true, func(local.Match) {})
	}
	var a answer
	for _, r := range timed {
		id := uint64(r.ID)
		j.Step(r, true, func(m local.Match) { a.add(id, uint64(m.Rec.ID)) })
	}
	return a
}

// render writes a record as words, one word per token rank. Distinct
// ranks give distinct words, so text and rank records have the same
// similarities.
func render(r *record.Record) string {
	var b strings.Builder
	for i, t := range r.Tokens {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('w')
		b.WriteString(strconv.FormatUint(uint64(t), 10))
	}
	return b.String()
}

// warmText streams the prefix through a TextStream whose ordering is
// frozen from the prefix texts, and snapshots it.
func (in *inputs) warmText() error {
	sample := make([]string, len(in.prefix))
	for i, r := range in.prefix {
		sample[i] = render(r)
	}
	in.texts = make([]string, len(in.timed))
	for i, r := range in.timed {
		in.texts[i] = render(r)
	}
	ts, err := ssjoin.NewTextStream(in.spec.config(), ssjoin.Words, sample)
	if err != nil {
		return err
	}
	for _, t := range sample {
		ts.Add(t)
	}
	var buf bytes.Buffer
	if err := ts.WriteSnapshot(&buf); err != nil {
		return fmt.Errorf("snapshotting warm text stream: %w", err)
	}
	in.textSnap = buf.Bytes()
	return nil
}

// warmDistributed builds the load-aware partition from the prefix's
// length histogram and checkpoints each worker's window after streaming
// the prefix through the in-process engine.
func (in *inputs) warmDistributed() error {
	for _, r := range in.prefix {
		in.hist.Add(r.Len())
	}
	in.part, _ = buildPartition(in)
	res, err := topology.Run(in.prefix, in.topologyConfig(in.part, nil, true))
	if err != nil {
		return fmt.Errorf("warming windows: %w", err)
	}
	in.snaps = res.Checkpoints
	return nil
}

// buildPartition runs the cost model and the load-aware partitioner over
// the prefix histogram, returning the partition and the model's weights.
func buildPartition(in *inputs) (partition.Partition, []float64) {
	w := partition.CostModel{Params: in.spec.params()}.Weights(&in.hist)
	return partition.LoadAware(w, in.spec.workers), w
}

func (in *inputs) topologyConfig(part partition.Partition, restore [][]byte, checkpoint bool) topology.Config {
	return topology.Config{
		Workers:    in.spec.workers,
		Strategy:   dispatch.NewLengthBased(in.spec.params(), part),
		Algorithm:  local.Bundled,
		Params:     in.spec.params(),
		Window:     window.Count{N: in.spec.window},
		Bundle:     in.bcfg,
		Checkpoint: checkpoint,
		Restore:    restore,
	}
}

func sameBounds(a, b partition.Partition) bool {
	if len(a.Bounds) != len(b.Bounds) {
		return false
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return false
		}
	}
	return true
}

func snapshotBytes(in *inputs) uint64 {
	n := uint64(len(in.textSnap))
	for _, s := range in.snaps {
		n += uint64(len(s))
	}
	return n
}
