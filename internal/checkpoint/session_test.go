package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bundle"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/wire"
)

func sessionJoiner(t *testing.T) local.Joiner {
	t.Helper()
	return local.New(local.Bundled, local.Options{
		Params: filter.Params{Func: similarity.Jaccard, Threshold: 0.6},
		Window: window.Unbounded{},
		Bundle: bundle.Config{GroupThreshold: 0.8, MaxMembers: 16},
	})
}

func TestSessionEnvelopeRoundTrip(t *testing.T) {
	j := sessionJoiner(t)
	j.Load(&record.Record{ID: 1, Tokens: []tokens.Rank{1, 2, 3}})
	meta := SessionMeta{
		PlanHash: 0xABCDEF0123456789,
		Unacked: []wire.Result{
			{A: 1, B: 2, Sim: 0.75},
			{A: 9, B: 4, Sim: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteSessionHeader(&buf, meta); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, Cursor{NextID: 2, NextTime: 5}, j); err != nil {
		t.Fatal(err)
	}

	got, body, v2, err := ReadSessionHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !v2 {
		t.Fatal("v2 envelope not detected")
	}
	if !reflect.DeepEqual(got, meta) {
		t.Fatalf("meta mismatch:\ngot  %+v\nwant %+v", got, meta)
	}
	j2 := sessionJoiner(t)
	cur, n, err := Read(body, j2)
	if err != nil {
		t.Fatal(err)
	}
	if cur.NextID != 2 || cur.NextTime != 5 || n != 1 {
		t.Fatalf("inner checkpoint: cur=%+v n=%d", cur, n)
	}
}

func TestSessionHeaderPassesThroughV1(t *testing.T) {
	j := sessionJoiner(t)
	j.Load(&record.Record{ID: 7, Tokens: []tokens.Rank{4, 5}})
	var buf bytes.Buffer
	if err := Write(&buf, Cursor{NextID: 8}, j); err != nil {
		t.Fatal(err)
	}
	meta, body, v2, err := ReadSessionHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v2 || meta.PlanHash != 0 || meta.Unacked != nil {
		t.Fatalf("v1 file misread as v2: %+v", meta)
	}
	j2 := sessionJoiner(t)
	cur, n, err := Read(body, j2)
	if err != nil {
		t.Fatalf("v1 body unreadable after pass-through: %v", err)
	}
	if cur.NextID != 8 || n != 1 {
		t.Fatalf("v1 body: cur=%+v n=%d", cur, n)
	}
}

func TestV1ReaderRejectsV2File(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSessionHeader(&buf, SessionMeta{PlanHash: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, Cursor{}, sessionJoiner(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf, sessionJoiner(t)); err == nil {
		t.Fatal("v1 Read accepted a v2 file")
	}
}

func TestSessionHeaderEmptyUnacked(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSessionHeader(&buf, SessionMeta{PlanHash: 3}); err != nil {
		t.Fatal(err)
	}
	meta, _, v2, err := ReadSessionHeader(&buf)
	if err != nil || !v2 {
		t.Fatalf("empty-unacked header: %v v2=%v", err, v2)
	}
	if meta.PlanHash != 3 || len(meta.Unacked) != 0 {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestPath)
	m := &Manifest{
		Schema:    ManifestSchema,
		SessionID: 0xBEEF,
		PlanHash:  12345,
		Hello: wire.Hello{
			Version: wire.Version, Func: 1, Threshold: 0.7, Strategy: 0,
			Bounds: []int{10, 20, 30}, FT: true, Durable: true,
			SessionID: 0xBEEF, PlanHash: 12345,
		},
		Workers:     []string{"a:1", "b:2", "c:3"},
		Bounds:      []int{10, 20, 30},
		IngestNext:  500,
		ResultsNext: 77,
		Cursors:     []TaskCursor{{Task: 0, SentPos: 100}, {Task: 2, SentPos: 90}},
	}
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: atomic save must replace, not append.
	m.IngestNext = 600
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest mismatch:\ngot  %+v\nwant %+v", got, m)
	}
	// No temp debris.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("session dir has %d entries, want just the manifest", len(entries))
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestPath)
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("missing manifest loaded")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("corrupt manifest loaded")
	}
	if err := SaveManifest(path, &Manifest{Schema: ManifestSchema + 1, SessionID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("wrong-schema manifest loaded")
	}
	if err := SaveManifest(path, &Manifest{Schema: ManifestSchema}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("zero-session manifest loaded")
	}
}

func TestErrPlanMismatchIsSentinel(t *testing.T) {
	wrapped := errors.New("worker: " + ErrPlanMismatch.Error())
	if errors.Is(wrapped, ErrPlanMismatch) {
		t.Fatal("string copy should not match the sentinel")
	}
	if !errors.Is(ErrPlanMismatch, ErrPlanMismatch) {
		t.Fatal("sentinel identity broken")
	}
}
