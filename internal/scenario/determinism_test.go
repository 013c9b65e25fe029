package scenario

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"croesus/internal/obs"
	"croesus/internal/vclock"
)

// The sim scheduler's contract is that parallelism is invisible: it runs one
// participant at a time, handing the baton on in ready-list order and then
// in (at, seq) order, so however many OS threads the process has, a scenario
// replay is byte-identical. These tests pin that down end to end — full
// fleet scenarios (migration, crash/WAL recovery, link faults, hot-key
// contention), compared as rendered reports AND as exported JSONL span
// traces, across GOMAXPROCS 1/2/8.

func scenarioFile(name string) string {
	return filepath.Join("..", "..", "cmd", "croesus", "testdata", name)
}

// runOnce replays one scenario on a fresh sim clock and returns the rendered
// report plus the deterministic JSONL trace export.
func runOnce(t *testing.T, path string) (string, []byte) {
	t.Helper()
	s, err := Load(path)
	if err != nil {
		t.Fatalf("Load(%s): %v", path, err)
	}
	o := obs.New()
	rt, err := NewObserved(s, vclock.NewSim(), nil, o)
	if err != nil {
		t.Fatalf("NewObserved(%s): %v", path, err)
	}
	defer rt.Cluster.Close()
	rep := rt.Run()
	var tr bytes.Buffer
	if err := obs.WriteJSONL(&tr, o.Trace.Spans()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return rep.Format(), tr.Bytes()
}

func testScenarioDeterminism(t *testing.T, path string) {
	wantReport, wantTrace := runOnce(t, path)

	t.Run("gomaxprocs", func(t *testing.T) {
		for _, procs := range []int{1, 2, 8} {
			old := runtime.GOMAXPROCS(procs)
			report, trace := runOnce(t, path)
			runtime.GOMAXPROCS(old)
			if report != wantReport {
				t.Errorf("GOMAXPROCS=%d: report differs from baseline\n--- baseline ---\n%s\n--- got ---\n%s", procs, wantReport, report)
			}
			if !bytes.Equal(trace, wantTrace) {
				t.Errorf("GOMAXPROCS=%d: JSONL trace differs from baseline (%d vs %d bytes)", procs, len(wantTrace), len(trace))
			}
		}
	})
}

// TestDeterminismMigrate replays the camera-migration scenario (the CI
// golden) across thread counts.
func TestDeterminismMigrate(t *testing.T) {
	testScenarioDeterminism(t, scenarioFile("migrate.json"))
}

// TestDeterminismFleetCrash replays the crash/WAL-recovery scenario — the
// heaviest scheduler workload in testdata (edge crash, respawn, replay,
// link fault, camera churn) — across thread counts.
func TestDeterminismFleetCrash(t *testing.T) {
	testScenarioDeterminism(t, scenarioFile("fleet-crash.json"))
}

// TestDeterminismZipfShift replays a sharded fleet whose key stream turns
// Zipf-skewed mid-run, with sections that hold their locks for virtual
// time, so which hot keys a transaction drew shows in the latencies. Every
// draw comes from the per-transaction rng (core's
// TestWorkloadSourceZipfKeysIgnoreCallOrder pins that), so the replay is
// as thread-count-blind as the uniform ones. Its cameras keep to their home
// shards; TestDeterminismZipfContended is the case where they do not.
func TestDeterminismZipfShift(t *testing.T) {
	testScenarioDeterminism(t, filepath.Join("testdata", "zipf-shift.json"))
}

// TestDeterminismZipfContended replays an MS-SR fleet of 16 cameras on 4
// edges whose transactions cross edges half the time and draw from 20
// Zipf-skewed keys: hundreds of wait-die aborts, decided by which of two
// transactions meeting on a hot key at one virtual instant asks first.
// That order is the ready list's, so the aborts replay too.
func TestDeterminismZipfContended(t *testing.T) {
	testScenarioDeterminism(t, filepath.Join("testdata", "zipf-contended.json"))
}

// TestDeterminismEdgePartition replays cluster-faults' fleet as a scenario
// file: one shard per edge shared by that edge's cameras, under an edge
// crash, two 2PC crashes and a peer-link partition.
func TestDeterminismEdgePartition(t *testing.T) {
	testScenarioDeterminism(t, filepath.Join("testdata", "edge-partition.json"))
}
