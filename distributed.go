package ssjoin

import (
	"fmt"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/topology"
)

// Distribution selects the record-distribution framework for distributed
// runs.
type Distribution int

// Supported frameworks. LengthBased is the paper's contribution: records
// are stored at the single worker owning their length and probe only the
// workers whose length ranges are compatible, so the index is never
// replicated and communication stays small. PrefixBased replicates records
// along prefix-token shards (the offline state of the art adapted to
// streams); BroadcastBased probes everywhere.
const (
	LengthBased Distribution = iota
	PrefixBased
	BroadcastBased
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case LengthBased:
		return "length"
	case PrefixBased:
		return "prefix"
	case BroadcastBased:
		return "broadcast"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Partitioner selects how LengthBased splits the length domain across
// workers.
type Partitioner int

// Supported partitioners. LoadAware balances the estimated local join cost
// (the paper's method); EvenLength and EvenFrequency are the baselines it
// is evaluated against.
const (
	LoadAware Partitioner = iota
	EvenLength
	EvenFrequency
)

// String implements fmt.Stringer.
func (p Partitioner) String() string {
	switch p {
	case LoadAware:
		return "load-aware"
	case EvenLength:
		return "even-length"
	case EvenFrequency:
		return "even-frequency"
	default:
		return fmt.Sprintf("Partitioner(%d)", int(p))
	}
}

// DistributedConfig parameterizes RunDistributed.
type DistributedConfig struct {
	// Config carries the join parameters (threshold, function, algorithm,
	// window, bundling).
	Config
	// Workers is the joiner parallelism (required, >= 1).
	Workers int
	// Distribution selects the framework (default LengthBased).
	Distribution Distribution
	// Partitioner selects the length-partitioning strategy for
	// LengthBased (default LoadAware).
	Partitioner Partitioner
	// SampleSize bounds how many records bootstrap the length histogram
	// for the partitioner (default 10000; the records are still joined).
	SampleSize int
	// CollectPairs returns every result pair in the summary; leave false
	// for large runs and read Results instead.
	CollectPairs bool
	// BatchSize is the transport micro-batch size from dispatcher to
	// workers: 0 uses the engine default, 1 ships every record
	// individually (the pre-batching behaviour). Results travel in one
	// block per worker input batch, shipped to the collector on its own.
	// Result pairs are identical at any value.
	BatchSize int
	// Parallelism sizes each worker's verifier pool: P-1 helper goroutines
	// per worker fan candidate verification out across cores (Bundle
	// algorithm only). Result pairs are identical at any value — the pool
	// merges in deterministic order. 0 or 1 keeps workers single-threaded;
	// the total goroutine budget is Workers × Parallelism.
	Parallelism int
}

// DistributedResult summarizes a distributed run.
type DistributedResult struct {
	// Results counts verified pairs; Pairs holds them when requested.
	Results uint64
	Pairs   []Pair
	// Records processed and wall-clock Elapsed.
	Records uint64
	Elapsed time.Duration
	// ThroughputPerSec is Records/Elapsed.
	ThroughputPerSec float64
	// CommTuples/CommBytes count dispatcher→worker traffic.
	CommTuples, CommBytes uint64
	// StoredCopies counts index entries across workers; equal to Records
	// means no replication.
	StoredCopies uint64
	// LoadImbalance is max/mean per-worker verification work (1.0 = perfectly
	// balanced).
	LoadImbalance float64
	// LatencyMeanNs / LatencyP99Ns summarize per-record processing latency.
	LatencyMeanNs, LatencyP99Ns int64
}

// toRecords converts token multisets into positional records.
func toRecords(records [][]uint32) []*record.Record {
	recs := make([]*record.Record, len(records))
	for i, set := range records {
		cp := make([]tokens.Rank, len(set))
		copy(cp, set)
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: tokens.Dedup(cp)}
	}
	return recs
}

// buildStrategy materializes the configured distribution strategy,
// bootstrapping the length partition from the first SampleSize records.
func buildStrategy(cfg DistributedConfig, params filter.Params, recs []*record.Record) (dispatch.Strategy, error) {
	switch cfg.Distribution {
	case LengthBased:
		var h partition.Histogram
		for i, r := range recs {
			if i >= cfg.SampleSize {
				break
			}
			h.Add(r.Len())
		}
		var part partition.Partition
		switch cfg.Partitioner {
		case LoadAware:
			w := partition.CostModel{Params: params}.Weights(&h)
			part = partition.LoadAware(w, cfg.Workers)
		case EvenLength:
			part = partition.EvenLength(h.MaxLen(), cfg.Workers)
		case EvenFrequency:
			part = partition.EvenFrequency(&h, cfg.Workers)
		default:
			return nil, fmt.Errorf("ssjoin: unknown partitioner %d", int(cfg.Partitioner))
		}
		return dispatch.NewLengthBased(params, part), nil
	case PrefixBased:
		return dispatch.PrefixBased{Params: params}, nil
	case BroadcastBased:
		return dispatch.BroadcastBased{}, nil
	default:
		return nil, fmt.Errorf("ssjoin: unknown distribution %d", int(cfg.Distribution))
	}
}

// RunDistributed joins the record slice on an in-process worker fleet and
// returns the summary. Records are token multisets; IDs are positional.
func RunDistributed(records [][]uint32, cfg DistributedConfig) (*DistributedResult, error) {
	params, win, alg, bcfg, err := cfg.Config.build()
	if err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("ssjoin: Workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 10000
	}

	recs := toRecords(records)
	strat, err := buildStrategy(cfg, params, recs)
	if err != nil {
		return nil, err
	}

	res, err := topology.Run(recs, topology.Config{
		Workers:      cfg.Workers,
		Strategy:     strat,
		Algorithm:    alg,
		Params:       params,
		Window:       win,
		Bundle:       bcfg,
		CollectPairs: cfg.CollectPairs,
		BatchSize:    cfg.BatchSize,
		Parallelism:  cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}

	return summarize(res), nil
}

// summarize converts an engine result into the public summary shape.
func summarize(res *topology.Result) *DistributedResult {
	out := &DistributedResult{
		Results:          res.Results,
		Records:          res.Records,
		Elapsed:          res.Elapsed,
		ThroughputPerSec: res.Throughput().PerSecond(),
		CommTuples:       res.CommTuples,
		CommBytes:        res.CommBytes,
		StoredCopies:     res.StoredCopies,
		LatencyMeanNs:    int64(res.Latency.Mean()),
		LatencyP99Ns:     int64(res.Latency.Quantile(0.99)),
	}
	loads := make([]float64, len(res.WorkerCosts))
	for i, c := range res.WorkerCosts {
		loads[i] = float64(c.VerifySteps + c.Scanned)
	}
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum > 0 {
		out.LoadImbalance = max / (sum / float64(len(loads)))
	} else {
		out.LoadImbalance = 1
	}
	for _, p := range res.Pairs {
		out.Pairs = append(out.Pairs, Pair{A: uint64(p.First), B: uint64(p.Second), Similarity: p.Sim})
	}
	return out
}

// SideSet is one record of a two-stream join: its token multiset plus the
// stream side it belongs to (false = R/left, true = S/right).
type SideSet struct {
	Right  bool
	Tokens []uint32
}

// RunDistributedBi joins a two-sided stream (data integration: records
// match only across sides) on an in-process worker fleet. The slice is the
// interleaved arrival order; IDs in the result pairs are positions in it.
func RunDistributedBi(stream []SideSet, cfg DistributedConfig) (*DistributedResult, error) {
	params, win, alg, bcfg, err := cfg.Config.build()
	if err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("ssjoin: Workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 10000
	}
	sets := make([][]uint32, len(stream))
	for i, s := range stream {
		sets[i] = s.Tokens
	}
	recs := toRecords(sets)
	birecs := make([]topology.BiRecord, len(recs))
	for i, r := range recs {
		birecs[i] = topology.BiRecord{Rec: r, Right: stream[i].Right}
	}
	strat, err := buildStrategy(cfg, params, recs)
	if err != nil {
		return nil, err
	}
	res, err := topology.RunBi(birecs, topology.Config{
		Workers:      cfg.Workers,
		Strategy:     strat,
		Algorithm:    alg,
		Params:       params,
		Window:       win,
		Bundle:       bcfg,
		CollectPairs: cfg.CollectPairs,
		BatchSize:    cfg.BatchSize,
		Parallelism:  cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return summarize(res), nil
}
