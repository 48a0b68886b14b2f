package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ssjoin "repro"
	"repro/internal/local"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/topology"
	"repro/internal/window"
)

// rep is one timed repetition: restore the warm window, stream the timed
// records, check the answer.
type rep struct {
	records  int
	setup    time.Duration
	wall     time.Duration // timed phase, wall clock
	proc     [2]procSnap   // around the timed phase
	p50, p99 float64       // per-record latency, µs
	heapMB   float64
	ans      answer
	hashed   bool // ans.Hash is meaningful (pairs were seen)
	counters map[string]uint64

	topo  *topology.Result // inProcess
	fleet *fleetStats      // tcpFleet
}

// throughput is timed records per second of the timed phase's wall time
// net of the time the hypervisor stole from the machine.
func (r *rep) throughput() float64 {
	return float64(r.records) / (r.wall.Seconds() * (1 - stealFrac(r.proc[0], r.proc[1])))
}

// cpuPerRec is the process CPU time, over all threads, per timed record.
func (r *rep) cpuPerRec() time.Duration {
	return (r.proc[1].cpu - r.proc[0].cpu) / time.Duration(r.records)
}

// runRep runs one repetition of the workload. collect asks the
// distributed engines for their pairs, which the timed repetitions leave
// off (the default) and the correctness pass turns on.
func runRep(in *inputs, collect bool) (*rep, error) {
	switch in.spec.engine {
	case textStream:
		return textRep(in)
	case inProcess:
		return topologyRep(in, collect)
	default:
		return fleetRep(in, collect)
	}
}

// setupOnce performs only the set-up of a repetition and tears it down.
func setupOnce(in *inputs) (time.Duration, error) {
	switch in.spec.engine {
	case textStream:
		t0 := time.Now()
		_, err := ssjoin.RestoreTextStream(bytes.NewReader(in.textSnap), in.spec.config(), ssjoin.Words)
		return time.Since(t0), err
	case inProcess:
		_, setup, _, err := runTopology(in, nil, false)
		return setup, err
	default:
		fr, err := openFleet(in)
		if err != nil {
			return 0, err
		}
		return fr.setup, fr.close()
	}
}

// check compares a repetition's answer with the reference.
func (r *rep) check(ref answer) error {
	if r.ans.Results != ref.Results {
		return fmt.Errorf("%d results, reference has %d", r.ans.Results, ref.Results)
	}
	if r.hashed && r.ans.Hash != ref.Hash {
		return fmt.Errorf("pair hash %x, reference has %x", r.ans.Hash, ref.Hash)
	}
	return nil
}

// setupTrials is how many set-ups a run makes on top of one per
// repetition, so that setup_s is a median even when few repetitions fit.
const setupTrials = 4

// runTimed repeats the workload until the budget is spent and reports
// the median of each end-to-end metric over the repetitions.
func runTimed(in *inputs, budget time.Duration) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	n := int64(len(in.timed))
	if in.spec.engine != textStream {
		// The timed repetitions keep pair collection off, so one
		// untimed pass checks the pairs themselves.
		o.attempted += n
		r, err := runRep(in, true)
		if err == nil {
			err = r.check(in.ref)
		}
		if err != nil {
			o.failed += n
			o.notes = append(o.notes, "pair check: "+err.Error())
		} else {
			o.counters = r.counters
		}
	}
	series := map[string][]float64{}
	for i := 0; i < setupTrials; i++ {
		d, err := setupOnce(in)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		series["setup_s"] = append(series["setup_s"], d.Seconds())
	}
	start := time.Now()
	for reps := 0; reps == 0 || time.Since(start) < budget; reps++ {
		o.attempted += n
		r, err := runRep(in, false)
		if err == nil {
			err = r.check(in.ref)
		}
		if err != nil {
			o.failed += n
			o.notes = append(o.notes, "repetition failed: "+err.Error())
			if len(o.notes) > 3 {
				break
			}
			continue
		}
		if o.counters == nil {
			o.counters = r.counters
		}
		vals := map[string]float64{
			"throughput_rps": r.throughput(),
			"cpu_us_per_rec": float64(r.cpuPerRec()) / 1e3,
			"latency_p50_us": r.p50,
			"setup_s":        r.setup.Seconds(),
			"live_heap_mb":   r.heapMB,
		}
		for name, v := range vals {
			series[name] = append(series[name], v)
		}
		vals["latency_p99_us"] = r.p99
		vals["wall_rps"] = float64(r.records) / r.wall.Seconds()
		vals["steal_frac"] = stealFrac(r.proc[0], r.proc[1])
		printLine("rep", vals)
	}
	for name := range e2eUnits {
		o.metrics[name] = median(series[name])
		o.samples[name] = len(series[name])
	}
	o.counters = withInputCounters(o.counters, in)
	return o, nil
}

func withInputCounters(c map[string]uint64, in *inputs) map[string]uint64 {
	if c == nil {
		c = map[string]uint64{}
	}
	c["reference.results"] = in.ref.Results
	c["reference.hash"] = in.ref.Hash
	c["checkpoint.snapshot_bytes"] = snapshotBytes(in)
	c["records.timed"] = uint64(len(in.timed))
	return c
}

// textRep restores the TextStream from its snapshot and adds the timed
// texts one at a time, each call waiting for its matches.
func textRep(in *inputs) (*rep, error) {
	lat := make([]float64, len(in.texts))
	base := heapAfterGC()
	t0 := time.Now()
	ts, err := ssjoin.RestoreTextStream(bytes.NewReader(in.textSnap), in.spec.config(), ssjoin.Words)
	if err != nil {
		return nil, fmt.Errorf("restoring text stream: %w", err)
	}
	r := &rep{records: len(in.texts), setup: time.Since(t0), hashed: true}
	r.proc[0] = takeProc()
	for i, text := range in.texts {
		c := time.Now()
		id, ms := ts.Add(text)
		lat[i] = float64(time.Since(c)) / 1e3
		for _, m := range ms {
			r.ans.add(id, m.ID)
		}
	}
	r.proc[1] = takeProc()
	r.wall = r.proc[1].at.Sub(r.proc[0].at)
	r.heapMB = mb(heapAfterGC(), base)
	st := ts.Stats()
	runtime.KeepAlive(ts)
	r.p50 = quantile(lat, 0.5)
	r.p99 = quantile(lat, 0.99)
	r.counters = map[string]uint64{
		"run.results":    r.ans.Results,
		"run.candidates": st.Candidates,
		"run.verified":   st.Verified,
		"run.stored":     uint64(st.Stored),
	}
	return r, nil
}

// runTopology builds the partition and runs the in-process engine over
// recs from the restored warm windows. Set-up is the partition build plus
// the part of topology.Run before its stream starts (window restore and
// wiring); proc brackets the whole call.
func runTopology(in *inputs, recs []*record.Record, collect bool) (res *topology.Result, setup time.Duration, proc [2]procSnap, err error) {
	proc[0] = takeProc()
	t0 := time.Now()
	part, _ := buildPartition(in)
	if !sameBounds(part, in.part) {
		return nil, 0, proc, fmt.Errorf("partition %v differs from the warm-up partition %v", part, in.part)
	}
	cfg := in.topologyConfig(part, in.snaps, false)
	cfg.CollectPairs = collect
	res, err = topology.Run(recs, cfg)
	total := time.Since(t0)
	proc[1] = takeProc()
	if err != nil {
		return nil, 0, proc, fmt.Errorf("topology run: %w", err)
	}
	return res, total - res.Elapsed, proc, nil
}

// topologyRep streams the timed records through the in-process engine as
// fast as it accepts them.
func topologyRep(in *inputs, collect bool) (*rep, error) {
	runtime.GC()
	base := liveHeap()
	hs := startHeapSampler()
	res, setup, proc, err := runTopology(in, in.timed, collect)
	peak := hs.finish()
	if err != nil {
		return nil, err
	}
	r := &rep{records: len(in.timed), setup: setup, wall: res.Elapsed, proc: proc, hashed: collect, topo: res}
	r.heapMB = mb(peak, base)
	r.p50 = float64(res.Latency.Quantile(0.5)) / 1e3
	r.p99 = float64(res.Latency.Quantile(0.99)) / 1e3
	if collect {
		for _, p := range res.Pairs {
			r.ans.add(uint64(p.First), uint64(p.Second))
		}
		if r.ans.Results != res.Results {
			return nil, fmt.Errorf("sink counted %d results but collected %d pairs", res.Results, r.ans.Results)
		}
	} else {
		r.ans.Results = res.Results
	}
	var c local.Cost
	for _, w := range res.WorkerCosts {
		c.Candidates += w.Candidates
		c.Verified += w.Verified
		c.VerifySteps += w.VerifySteps
		c.Scanned += w.Scanned
	}
	r.counters = map[string]uint64{
		"run.results":       res.Results,
		"run.candidates":    c.Candidates,
		"run.verified":      c.Verified,
		"run.verify_steps":  c.VerifySteps,
		"run.scanned":       c.Scanned,
		"run.comm_tuples":   res.CommTuples,
		"run.comm_bytes":    res.CommBytes,
		"run.tuples":        res.Report.TotalTuples(),
		"run.stored_copies": res.StoredCopies,
	}
	return r, nil
}

// timedConn counts the bytes read from a connection and the time its
// callers spend blocked in Read and Write.
type timedConn struct {
	net.Conn
	readNs, writeNs atomic.Int64
	readBytes       atomic.Uint64
}

func (c *timedConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.readNs.Add(int64(time.Since(t)))
	c.readBytes.Add(uint64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs.Add(int64(time.Since(t)))
	return n, err
}

// timedListener wraps every connection it accepts in a timedConn.
type timedListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*timedConn // guarded by mu
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &timedConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// readWait sums the time accepted connections spent blocked in Read.
func (l *timedListener) readWait() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d time.Duration
	for _, c := range l.conns {
		d += time.Duration(c.readNs.Load())
	}
	return d
}

// fleet is a set of loopback workers served from this process.
type fleet struct {
	cancel context.CancelFunc
	lns    []*timedListener
	mons   []*remote.Monitor
	wg     sync.WaitGroup
	errs   chan error

	mu     sync.Mutex
	logged []string // guarded by mu; session errors the workers logged
}

func (f *fleet) logf(format string, args ...interface{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logged = append(f.logged, fmt.Sprintf(format, args...))
}

// sessionErrors reports the session errors the workers logged so far.
func (f *fleet) sessionErrors() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.logged) == 0 {
		return nil
	}
	return fmt.Errorf("workers logged %d session errors, first: %s", len(f.logged), f.logged[0])
}

func startFleet(k int) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel, errs: make(chan error, k)}
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listening: %w", err)
		}
		tl := &timedListener{Listener: ln}
		mon := &remote.Monitor{}
		f.lns = append(f.lns, tl)
		f.mons = append(f.mons, mon)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.errs <- remote.ServeWorkerMonitored(ctx, tl, f.logf, mon)
		}()
	}
	return f, nil
}

func (f *fleet) dial() ([]*timedConn, []io.ReadWriter, error) {
	addrs := make([]string, len(f.lns))
	for i, l := range f.lns {
		addrs[i] = l.Addr().String()
	}
	raw, err := remote.Dial(context.Background(), addrs, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	conns := make([]*timedConn, len(raw))
	rws := make([]io.ReadWriter, len(raw))
	for i, c := range raw {
		conns[i] = &timedConn{Conn: c}
		rws[i] = conns[i]
	}
	return conns, rws, nil
}

func closeConns(conns []*timedConn) {
	for _, c := range conns {
		c.Close()
	}
}

// close stops every worker and waits for each to return. Sessions cut
// short by the stop are not errors; callers check sessionErrors first.
func (f *fleet) close() error {
	f.cancel()
	f.wg.Wait()
	close(f.errs)
	for err := range f.errs {
		if err != nil {
			return fmt.Errorf("worker: %w", err)
		}
	}
	return nil
}

// fleetStats is what the connection wrappers and monitors saw during the
// timed session.
type fleetStats struct {
	summary      *remote.RunSummary
	writeBlocked time.Duration // coordinator, in conn.Write
	resultBytes  uint64        // coordinator reads
	readWait     time.Duration // workers, in conn.Read
}

// fleetRun is a started loopback fleet whose set-up is done: partition
// built, workers listening, one seeded session without records run (so
// the windows' restore and the Hello round trip count as set-up), and the
// connections for the timed session dialed.
type fleetRun struct {
	f     *fleet
	sess  remote.Session
	conns []*timedConn
	rws   []io.ReadWriter
	setup time.Duration
}

func openFleet(in *inputs) (_ *fleetRun, err error) {
	t0 := time.Now()
	part, _ := buildPartition(in)
	if !sameBounds(part, in.part) {
		return nil, fmt.Errorf("partition %v differs from the warm-up partition %v", part, in.part)
	}
	f, err := startFleet(in.spec.workers)
	if err != nil {
		return nil, err
	}
	fr := &fleetRun{f: f, sess: remote.Session{
		Params:    in.spec.params(),
		Algorithm: local.Bundled,
		Window:    window.Count{N: in.spec.window},
		Bundle:    in.bcfg,
		Strategy:  "length",
		Bounds:    part.Bounds,
	}}
	defer func() {
		if err != nil {
			fr.close()
		}
	}()
	warm, warmRW, err := f.dial()
	if err != nil {
		return nil, err
	}
	_, err = remote.RunWithOpts(context.Background(), warmRW, fr.sess, nil, remote.Opts{Seed: in.snaps})
	closeConns(warm)
	if err != nil {
		return nil, fmt.Errorf("seeding session: %w", err)
	}
	if err := f.sessionErrors(); err != nil {
		return nil, err
	}
	if fr.conns, fr.rws, err = f.dial(); err != nil {
		return nil, err
	}
	fr.setup = time.Since(t0)
	return fr, nil
}

// close hangs up and stops the fleet, waiting for every worker.
func (fr *fleetRun) close() error {
	closeConns(fr.conns)
	return fr.f.close()
}

// fleetRep streams the timed records through the loopback fleet. The
// timed session seeds the same windows again, since a session owns its
// windows.
func fleetRep(in *inputs, collect bool) (_ *rep, err error) {
	runtime.GC()
	base := liveHeap()
	hs := startHeapSampler()
	defer hs.finish()
	fr, err := openFleet(in)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := fr.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var wait0 time.Duration
	for _, l := range fr.f.lns {
		wait0 += l.readWait()
	}
	r := &rep{records: len(in.timed), setup: fr.setup, hashed: collect}
	r.proc[0] = takeProc()
	sum, err := remote.RunWithOpts(context.Background(), fr.rws, fr.sess, in.timed, remote.Opts{Seed: in.snaps, CollectPairs: collect})
	r.proc[1] = takeProc()
	r.wall = r.proc[1].at.Sub(r.proc[0].at)
	r.heapMB = mb(hs.finish(), base)
	if err != nil {
		return nil, fmt.Errorf("timed session: %w", err)
	}
	if err := fr.f.sessionErrors(); err != nil {
		return nil, err
	}
	fs := &fleetStats{summary: sum, readWait: -wait0}
	for _, c := range fr.conns {
		fs.writeBlocked += time.Duration(c.writeNs.Load())
		fs.resultBytes += c.readBytes.Load()
	}
	for _, l := range fr.f.lns {
		fs.readWait += l.readWait()
	}
	r.fleet = fs
	var lat metrics.Latency
	for _, m := range fr.f.mons {
		s := m.RecordLatency.Snapshot()
		lat.Merge(&s)
	}
	r.p50 = float64(lat.Quantile(0.5)) / 1e3
	r.p99 = float64(lat.Quantile(0.99)) / 1e3
	if collect {
		for _, p := range sum.Pairs {
			r.ans.add(uint64(p.First), uint64(p.Second))
		}
		if r.ans.Results != sum.Results {
			return nil, fmt.Errorf("coordinator counted %d results but collected %d pairs", sum.Results, r.ans.Results)
		}
	} else {
		r.ans.Results = sum.Results
	}
	var ws struct{ cand, ver, steps, scanned uint64 }
	for _, s := range sum.WorkerStats {
		ws.cand += s.Candidates
		ws.ver += s.Verified
		ws.steps += s.VerifySteps
		ws.scanned += s.Scanned
	}
	r.counters = map[string]uint64{
		"run.results":      sum.Results,
		"run.candidates":   ws.cand,
		"run.verified":     ws.ver,
		"run.verify_steps": ws.steps,
		"run.scanned":      ws.scanned,
		"run.comm_tuples":  sum.TuplesSent,
		"run.comm_bytes":   sum.BytesSent,
		"run.retries":      sum.Retries + sum.Reconnects,
	}
	return r, nil
}
