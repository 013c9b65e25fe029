package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"croesus/internal/experiments"
	"croesus/internal/obs"
)

// runArgs runs the croesus command line in process and returns its exit
// code, stdout and stderr.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors: every subcommand turns a flag it cannot use into exit
// code 2 before doing any work, and so does the dispatcher.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"no-such-command"},
		{"cluster"},
		{"cluster", "-scenario", "testdata/migrate.json", "-timescale", "-1"},
		{"fleet"},
		{"fleet", "-bin", "."},
		{"edge", "-keys", "0"},
		{"edge", "-protocol", "2pl"},
		{"cloud", "-model", "large"},
		{"client", "-video", "nowhere"},
		{"trace"},
		{"bench", "-run", "no-such-experiment", "-frames", "1"},
	} {
		code, _, stderr := runArgs(args...)
		if code != 2 {
			t.Errorf("croesus %s: exit %d, want 2 (stderr %q)", strings.Join(args, " "), code, stderr)
		}
	}
	if code, _, _ := runArgs("cluster", "-h"); code != 0 {
		t.Errorf("croesus cluster -h: exit %d, want 0", code)
	}
}

// TestClusterRunsGolden runs the migrate scenario through the subcommand:
// its stdout is the golden report, its stderr the verdict, and the
// harness writes the trace and both profiles the flags ask for.
func TestClusterRunsGolden(t *testing.T) {
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")}
	code, stdout, stderr := runArgs("cluster", "-scenario", "testdata/migrate.json",
		"-trace", files[0], "-cpuprofile", files[1], "-memprofile", files[2])
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, f := range files {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", filepath.Base(f), err)
		}
	}
	want, err := os.ReadFile("testdata/migrate.golden")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from testdata/migrate.golden:\n%s", stdout)
	}
	if !strings.HasSuffix(stderr, "invariants: OK\n") {
		t.Errorf("stderr does not end with the verdict:\n%s", stderr)
	}
}

// TestClusterValidate: -validate prints the resolved section plan and
// runs nothing.
func TestClusterValidate(t *testing.T) {
	code, stdout, stderr := runArgs("cluster", "-validate", "-scenario", "testdata/graph.json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{`scenario "cityfleet-graph": valid`, "section plan (3 sections):"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if stderr != "" {
		t.Errorf("a dry run logged:\n%s", stderr)
	}
}

// TestBenchList prints every experiment ID, one a line.
func TestBenchList(t *testing.T) {
	code, stdout, _ := runArgs("bench", "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if got, want := stdout, strings.Join(experiments.IDs(), "\n")+"\n"; got != want {
		t.Errorf("stdout = %q, want %q", got, want)
	}
}

// TestTraceCheck merges two hand-built streams, an edge and a cloud whose
// clock reads 7 s behind: aligned, the pair is causally clean. A stream
// with a span whose parent no stream holds fails -check.
func TestTraceCheck(t *testing.T) {
	const skew = 7 * time.Second
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var edge, cloud []obs.Span
	for i := 0; i < 3; i++ {
		trace, base := uint64(100+i), time.Duration(i)*time.Second
		root, rpc, req := uint64(1000+i), uint64(2000+i), uint64(3000+i)
		edge = append(edge,
			obs.Span{Name: obs.SpanFrameRoot, Start: base, End: base + ms(400), Trace: trace, ID: root, Proc: "edge"},
			obs.Span{Name: obs.SpanRPCCloud, Start: base + ms(100), End: base + ms(300), Trace: trace, ID: rpc, Parent: root, Proc: "edge"},
		)
		cloud = append(cloud,
			obs.Span{Name: obs.SpanCloudRequest, Start: base + ms(140) - skew, End: base + ms(260) - skew, Trace: trace, ID: req, Parent: rpc, Proc: "cloud"},
		)
	}
	dir := t.TempDir()
	write := func(name string, spans []obs.Span) string {
		path := filepath.Join(dir, name)
		var b bytes.Buffer
		if err := obs.WriteJSONL(&b, spans); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	edgePath, cloudPath := write("edge.jsonl", edge), write("cloud.jsonl", cloud)
	merged := filepath.Join(dir, "merged.jsonl")

	code, stdout, stderr := runArgs("trace", "-check", "-o", merged, edgePath, cloudPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if stdout == "" {
		t.Error("no critical-path summary on stdout")
	}
	if !strings.Contains(stderr, "trace: clock cloud    7s (reference edge)") {
		t.Errorf("the cloud's 7 s skew was not recovered:\n%s", stderr)
	}
	b, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != len(edge)+len(cloud) {
		t.Errorf("merged stream holds %d spans, want %d", n, len(edge)+len(cloud))
	}

	orphan := write("orphan.jsonl", []obs.Span{{Name: obs.SpanCloudRequest, Start: 0, End: ms(1), Trace: 9, ID: 1, Parent: 99, Proc: "cloud"}})
	if code, _, stderr := runArgs("trace", "-check", "-q", edgePath, orphan); code != 1 {
		t.Errorf("an orphan span passed -check: exit %d, stderr:\n%s", code, stderr)
	}
}
