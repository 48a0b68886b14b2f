// Trace stitching. The coordinator owns root traces (emit/dispatch/wire
// spans); each worker owns fragments (queue/process/verify/deliver spans)
// keyed by trace id. A Stitcher accepts both in any order — fragments
// routinely arrive before their root when worker scrapes race the local
// ring — and reassembles end-to-end traces. It is defensive by design:
//
//   - fragments without a root wait in a bounded pending ring (a worker
//     that died mid-session leaves orphans, which must not pin memory);
//   - re-adding the same root or the same (trace, source) fragment
//     replaces the previous copy, so repeated scrapes are idempotent;
//   - spans duplicated by a retry (the PR 4 replay path re-processes
//     records past the checkpoint cursor) are kept but counted, so a
//     stitched trace shows that the retry happened;
//   - every map entry is tied to a fixed-size ring slot, so no code path
//     leaks slots regardless of arrival order.
package obs

import (
	"sort"
	"sync"
)

// maxFragSources caps how many distinct sources may contribute fragments
// to one trace; a fleet is far smaller.
const maxFragSources = 64

// StitchedTrace is one end-to-end trace: the coordinator's root spans
// plus every worker fragment, re-based onto the root's clock.
type StitchedTrace struct {
	TraceSnapshot
	// Origins lists the processes that contributed spans, sorted;
	// "coordinator" for the root, scrape sources for fragments.
	Origins []string `json:"origins"`
	// DuplicateSpans counts fragment spans whose (stage, component, task,
	// parent) repeats within one source — the signature of a retry
	// re-processing a replayed record.
	DuplicateSpans int `json:"duplicate_spans,omitempty"`
}

// StitchSnapshot is the coordinator-side cluster view served at
// /debug/traces.
type StitchSnapshot struct {
	Traces []StitchedTrace `json:"traces"`
	// OrphanFragments counts trace ids holding fragments with no root yet.
	OrphanFragments int `json:"orphan_fragments"`
	// EvictedTraces counts roots dropped from the bounded ring.
	EvictedTraces uint64 `json:"evicted_traces"`
}

// Stitcher reassembles distributed traces from roots and fragments. All
// methods lock and return quickly; nothing blocks on I/O.
type Stitcher struct {
	mu       sync.Mutex
	capacity int

	roots     map[uint64]TraceSnapshot               // guarded by mu
	rootOrder []uint64                               // guarded by mu; FIFO ring
	rootNext  int                                    // guarded by mu
	frags     map[uint64]map[string]FragmentSnapshot // guarded by mu; ids with roots
	pending   map[uint64]map[string]FragmentSnapshot // guarded by mu; ids without roots
	pendOrder []uint64                               // guarded by mu; FIFO ring
	pendNext  int                                    // guarded by mu
	evicted   uint64                                 // guarded by mu
}

// NewStitcher returns a stitcher retaining the most recent capacity root
// traces and as many orphaned trace ids (capacity <= 0 selects 256).
func NewStitcher(capacity int) *Stitcher {
	if capacity <= 0 {
		capacity = 256
	}
	return &Stitcher{
		capacity: capacity,
		roots:    make(map[uint64]TraceSnapshot, capacity),
		frags:    make(map[uint64]map[string]FragmentSnapshot, capacity),
		pending:  make(map[uint64]map[string]FragmentSnapshot),
	}
}

// AddRoot registers (or refreshes) a coordinator root trace and adopts
// any fragments that arrived before it.
func (s *Stitcher) AddRoot(root TraceSnapshot) {
	if s == nil || root.ID == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.roots[root.ID]; ok {
		s.roots[root.ID] = root // refresh in place, slot already claimed
		return
	}
	if len(s.rootOrder) < s.capacity {
		s.rootOrder = append(s.rootOrder, root.ID)
	} else {
		old := s.rootOrder[s.rootNext]
		delete(s.roots, old)
		delete(s.frags, old)
		s.rootOrder[s.rootNext] = root.ID
		s.rootNext = (s.rootNext + 1) % s.capacity
		s.evicted++
	}
	s.roots[root.ID] = root
	if pend, ok := s.pending[root.ID]; ok {
		s.frags[root.ID] = pend
		delete(s.pending, root.ID)
		// The pending ring slot goes stale; evicting it later is a no-op.
	}
}

// AddFragment registers (or refreshes) the fragment scraped from source
// for one trace. Fragments for unknown roots wait in a bounded pending
// ring until the root arrives or the slot is reclaimed.
func (s *Stitcher) AddFragment(source string, f FragmentSnapshot) {
	if s == nil || f.TraceID == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.roots[f.TraceID]; ok {
		m := s.frags[f.TraceID]
		if m == nil {
			m = make(map[string]FragmentSnapshot)
			s.frags[f.TraceID] = m
		}
		if _, have := m[source]; have || len(m) < maxFragSources {
			m[source] = f
		}
		return
	}
	m := s.pending[f.TraceID]
	if m == nil {
		// Claim a pending slot for this orphan id, reclaiming the oldest
		// slot when full (its map entry may already be gone: adopted by a
		// root, or overwritten — both leave the delete a no-op).
		if len(s.pendOrder) < s.capacity {
			s.pendOrder = append(s.pendOrder, f.TraceID)
		} else {
			delete(s.pending, s.pendOrder[s.pendNext])
			s.pendOrder[s.pendNext] = f.TraceID
			s.pendNext = (s.pendNext + 1) % s.capacity
		}
		m = make(map[string]FragmentSnapshot)
		s.pending[f.TraceID] = m
	}
	if _, have := m[source]; have || len(m) < maxFragSources {
		m[source] = f
	}
}

// Snapshot stitches and returns the cluster trace view, newest root
// first.
func (s *Stitcher) Snapshot() StitchSnapshot {
	if s == nil {
		return StitchSnapshot{Traces: []StitchedTrace{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StitchSnapshot{
		Traces:          make([]StitchedTrace, 0, len(s.rootOrder)),
		OrphanFragments: len(s.pending),
		EvictedTraces:   s.evicted,
	}
	for i := 0; i < len(s.rootOrder); i++ {
		id := s.rootOrder[(s.rootNext-1-i+len(s.rootOrder))%len(s.rootOrder)]
		root, ok := s.roots[id]
		if !ok {
			continue
		}
		out.Traces = append(out.Traces, stitchOne(root, s.frags[id]))
	}
	return out
}

// stitchOne merges one root with its fragments: fragment spans are
// re-based onto the root's start, their intra-fragment parent indices
// shifted past the root's spans, and parent -1 re-anchored at the
// fragment's wire parent.
func stitchOne(root TraceSnapshot, frags map[string]FragmentSnapshot) StitchedTrace {
	st := StitchedTrace{TraceSnapshot: TraceSnapshot{ID: root.ID, StartUnixNs: root.StartUnixNs}}
	st.Spans = make([]SpanSnapshot, 0, len(root.Spans))
	for _, sp := range root.Spans {
		sp.Origin = "coordinator"
		st.Spans = append(st.Spans, sp)
	}
	st.Origins = append(st.Origins, "coordinator")
	sources := make([]string, 0, len(frags))
	for src := range frags {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	for _, src := range sources {
		f := frags[src]
		st.Origins = append(st.Origins, src)
		base := len(st.Spans)
		type spanKey struct {
			stage, component string
			task, parent     int
		}
		seen := make(map[spanKey]bool, len(f.Spans))
		for _, sp := range f.Spans {
			k := spanKey{sp.Stage, sp.Component, sp.Task, sp.Parent}
			if seen[k] {
				st.DuplicateSpans++
			}
			seen[k] = true
			parent := f.WireParent
			if sp.Parent >= 0 {
				parent = base + sp.Parent
			} else if parent < 0 || parent >= len(root.Spans) {
				// A wire parent outside the root (stale root snapshot or a
				// mismatched session) degrades to a parentless span rather
				// than a dangling reference.
				parent = -1
			}
			st.Spans = append(st.Spans, SpanSnapshot{
				Stage:      sp.Stage,
				Component:  sp.Component,
				Task:       sp.Task,
				Parent:     parent,
				StartUs:    float64(sp.StartUnixNs-root.StartUnixNs) / 1e3,
				DurationUs: sp.DurationUs,
				Origin:     src,
			})
		}
	}
	return st
}
