package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenIDs are the pipeline-driven experiments, pinned byte for byte at
// Opts{Frames: 40}.
var goldenIDs = []string{
	"figure2", "table1", "figure3", "table2", "figure4", "figure5",
	"figure6a", "figure6b", "figure6c",
	"cluster-scale", "cluster-shed", "cluster-2pc", "cluster-faults",
	"cluster-migrate", "graph-depth",
	"ablation-2pc", "ablation-policy", "ablation-sequencer",
	"ablation-smoothing", "ablation-chain",
}

// TestExperimentGoldens pins every table byte for byte: the single-edge
// modes, DirectValidator, preprocessing, smoothing and the threshold
// sweeps, which the fleet scenario goldens do not reach. Regenerate these
// and the scenario goldens together with
//
//	go test ./internal/experiments ./cmd/croesus-cluster -run Golden -update
func TestExperimentGoldens(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, ok := ByID(id, Opts{Frames: 40})
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			got := tab.Format()
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s:\n--- got\n%s\n--- want\n%s\n%s", id, path, got, want, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff names the first differing line, so a one-cell drift in a long
// table is findable.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first difference at line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return "line counts differ"
}
