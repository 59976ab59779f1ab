package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crhkit/crh/internal/wal"
)

// mustClose shuts a server down, surfacing a WAL close failure as a
// test failure — recovery assertions downstream are meaningless if the
// final flush was lost.
func mustClose(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
}

// durableServer builds a Server over dir with a tight snapshot cadence so
// compaction paths get exercised even in short tests, at crhd's default
// decay rate α = 1.
func durableServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.DataDir, cfg.Decay = dir, 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ingestN pushes n single-observation batches with deterministic values,
// alternating continuous and categorical claims from two sources.
func ingestN(t *testing.T, e *entry, n int) int64 {
	t.Helper()
	var version int64
	for i := 0; i < n; i++ {
		v, err := e.Ingest([]Observation{
			{Source: "s1", Object: fmt.Sprintf("o%d", i%3), Property: "temp", Value: num(float64(i) * 1.25)},
			{Source: "s2", Object: fmt.Sprintf("o%d", i%3), Property: "cond", Value: str([]string{"sunny", "rain"}[i%2])},
		})
		if err != nil {
			t.Fatal(err)
		}
		version = v
	}
	return version
}

// resolveBits runs a CRH resolve through the handler stack and returns
// the response body — compared byte-for-byte across recovery, which pins
// every float to its exact bits (JSON via strconv round-trips float64
// exactly).
func resolveBits(t *testing.T, s *Server, name string) []byte {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/datasets/"+name+"/resolve", strings.NewReader("{}"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var envelope struct {
		ResolveResponse
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	out, _ := json.Marshal(envelope)
	return out
}

func warmBits(t *testing.T, s *Server, name string) []byte {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/datasets/"+name+"/incremental", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("incremental: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestDurableRecoveryBitExact is the core durability contract: a server
// reopened over the same data dir serves the exact pre-shutdown state —
// same version, bit-identical resolve output, bit-identical warm I-CRH
// truths and weights — whether the state comes from the snapshot, the
// WAL, or both.
func TestDurableRecoveryBitExact(t *testing.T) {
	// snapshotEvery=4 with 10 batches lands us mid-cadence: versions
	// 1..9 covered by the snapshot at 9, versions 10..11 only in the WAL.
	for _, n := range []int{0, 3, 10} {
		t.Run(fmt.Sprintf("batches=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			s1 := durableServer(t, dir, Config{SnapshotEvery: 4})
			e, err := s1.registry.Create("d", strings.NewReader(testTSV))
			if err != nil {
				t.Fatal(err)
			}
			version := int64(1)
			if n > 0 {
				version = ingestN(t, e, n)
			}
			wantResolve := resolveBits(t, s1, "d")
			wantWarm := warmBits(t, s1, "d")
			wantInfo := e.Info()
			mustClose(t, s1)

			s2 := durableServer(t, dir, Config{SnapshotEvery: 4})
			defer mustClose(t, s2)
			e2, ok := s2.registry.Get("d")
			if !ok {
				t.Fatal("dataset not recovered")
			}
			if got := e2.Snapshot().Version; got != version {
				t.Fatalf("recovered version %d, want %d", got, version)
			}
			if gotInfo := e2.Info(); gotInfo != wantInfo {
				t.Fatalf("recovered info %+v, want %+v", gotInfo, wantInfo)
			}
			if got := resolveBits(t, s2, "d"); !bytes.Equal(got, wantResolve) {
				t.Fatalf("resolve diverged after recovery:\n got %s\nwant %s", got, wantResolve)
			}
			if got := warmBits(t, s2, "d"); !bytes.Equal(got, wantWarm) {
				t.Fatalf("warm state diverged after recovery:\n got %s\nwant %s", got, wantWarm)
			}

			// Recovered datasets must keep ingesting — and the continuation
			// must match a server that never restarted.
			if _, err := e2.Ingest([]Observation{
				{Source: "s9", Object: "o9", Property: "temp", Value: num(7)},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableRecoveryMatchesUncrashed ingests the same stream into a
// durable server (restarted mid-stream) and a memory-only server, then
// compares warm weights bit-for-bit: replay must be indistinguishable
// from having never stopped.
func TestDurableRecoveryMatchesUncrashed(t *testing.T) {
	dir := t.TempDir()
	s1 := durableServer(t, dir, Config{SnapshotEvery: 3})
	e1, err := s1.registry.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	ingestN(t, e1, 5)
	mustClose(t, s1)
	s2 := durableServer(t, dir, Config{SnapshotEvery: 3})
	defer mustClose(t, s2)
	e2, _ := s2.registry.Get("d")
	ingestN(t, e2, 4) // note: ingestN restarts i at 0; mirrored below

	ref, err := New(Config{Decay: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, ref)
	eRef, err := ref.registry.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	ingestN(t, eRef, 5)
	ingestN(t, eRef, 4)

	_, _, w2, c2 := e2.WarmState()
	_, _, wRef, cRef := eRef.WarmState()
	if c2 != cRef {
		t.Fatalf("chunks %d vs %d", c2, cRef)
	}
	if len(w2) != len(wRef) {
		t.Fatalf("weight sets differ: %v vs %v", w2, wRef)
	}
	for k, v := range wRef {
		if math.Float64bits(w2[k]) != math.Float64bits(v) {
			t.Fatalf("weight %q: %x vs %x", k, math.Float64bits(w2[k]), math.Float64bits(v))
		}
	}
}

// TestDurableDeleteReleasesEverything: deleting a dataset drops its
// on-disk directory, a stale entry handle refuses ingest, and the name
// can be recreated cleanly — before and after a restart.
func TestDurableDeleteReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Config{})
	e, err := s.registry.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	ingestN(t, e, 2)
	if ok, err := s.registry.Delete("d"); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "d")); !os.IsNotExist(err) {
		t.Fatalf("on-disk state survives delete: %v", err)
	}
	// Stale handle: the entry was fetched before the delete.
	if _, err := e.Ingest([]Observation{{Source: "s", Object: "o", Property: "p", Value: num(1)}}); !errors.Is(err, errNotFound) {
		t.Fatalf("ingest on deleted entry: %v, want errNotFound", err)
	}
	// The released entry must not pin its log or interning tables.
	e.mu.Lock()
	if e.log != nil || e.srcSet != nil || e.proc != nil {
		t.Error("delete left entry resources live")
	}
	e.mu.Unlock()

	// Same name, fresh content: must start from scratch at version 1.
	e2, err := s.registry.Create("d", strings.NewReader(""))
	if err != nil {
		t.Fatalf("re-create after delete: %v", err)
	}
	if e2.Info().Observations != 0 {
		t.Fatalf("re-created dataset inherited observations: %+v", e2.Info())
	}
	mustClose(t, s)

	s2 := durableServer(t, dir, Config{})
	defer mustClose(t, s2)
	e3, ok := s2.registry.Get("d")
	if !ok {
		t.Fatal("re-created dataset not recovered")
	}
	if info := e3.Info(); info.Observations != 0 || info.Version != 1 {
		t.Fatalf("recovered re-created dataset: %+v", info)
	}
}

// TestDurableCompactionBoundsSegments: with a tight snapshot cadence the
// WAL cannot grow without bound — old segments retire at each snapshot —
// and recovery from a compacted log is still exact.
func TestDurableCompactionBoundsSegments(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Config{SnapshotEvery: 2, Fsync: "off"})
	e, err := s.registry.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	ingestN(t, e, 20)
	want := resolveBits(t, s, "d")
	wantVersion := e.Snapshot().Version
	mustClose(t, s)

	// Snapshots pruned to the latest; no unbounded file growth.
	entries, err := os.ReadDir(filepath.Join(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 4 {
		names := make([]string, len(entries))
		for i, de := range entries {
			names[i] = de.Name()
		}
		t.Fatalf("compaction left %d files: %v", len(entries), names)
	}

	s2 := durableServer(t, dir, Config{SnapshotEvery: 2})
	defer mustClose(t, s2)
	e2, _ := s2.registry.Get("d")
	if e2.Snapshot().Version != wantVersion {
		t.Fatalf("version %d after compacted recovery, want %d", e2.Snapshot().Version, wantVersion)
	}
	if got := resolveBits(t, s2, "d"); !bytes.Equal(got, want) {
		t.Fatal("resolve diverged after compacted recovery")
	}
}

// TestDurableHTTPDeleteRecreate drives delete/recreate through the HTTP
// layer against a durable server.
func TestDurableHTTPDeleteRecreate(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Config{})
	defer mustClose(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	mustCreate(t, ts.URL, "d", testTSV)
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/d", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/d", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
	mustCreate(t, ts.URL, "d", testTSV)
}

// TestDurableBadConfig: an unknown fsync policy or an unusable data dir
// must fail construction, not limp along memory-only.
func TestDurableBadConfig(t *testing.T) {
	if _, err := New(Config{DataDir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("bad fsync policy accepted")
	}
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: filepath.Join(file, "sub")}); err == nil {
		t.Error("unusable data dir accepted")
	}
}

// TestDurableCorruptWALRefusesStart: interior WAL damage (not a torn
// tail) must fail recovery loudly rather than serve a silently shortened
// history.
func TestDurableCorruptWALRefusesStart(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Config{})
	e, err := s.registry.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	ingestN(t, e, 3)
	mustClose(t, s)

	// Flip a byte in the middle of the segment: CRC breaks on a record
	// that is not the tail.
	segs, err := filepath.Glob(filepath.Join(dir, "d", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 32 {
		t.Skip("segment too small to corrupt mid-record")
	}
	raw[12] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: dir}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupt WAL start: %v, want ErrCorrupt", err)
	}
}
