package croesus

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite testdata/examples/*.golden from the current code")

// examples are the programs under examples/, each pinned by its stdout.
var examples = []string{"argame", "cityfleet", "inferencegraph", "quickstart", "smartcampus", "trafficmonitor"}

// TestExamplesGolden builds every example and diffs its stdout against
// testdata/examples/<name>.golden. Each runs on the virtual clock with fixed
// seeds, so its output is the same at any GOMAXPROCS. Regenerate with
//
//	go test . -run ExamplesGolden -update
func TestExamplesGolden(t *testing.T) {
	dir := t.TempDir()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	build := exec.Command(gobin, "build", "-o", dir+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range examples {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "examples", name+".golden")
			if *updateExamples {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s stdout drifted from %s:\n--- got\n%s\n--- want\n%s", name, path, stdout.Bytes(), want)
			}
		})
	}
}
