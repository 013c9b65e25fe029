package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// quick returns small-but-meaningful options so the full suite stays fast.
func quick() Opts {
	return Opts{Frames: 60, Seed: 42, Mu: 0.80, GridStep: 0.1}
}

func cell(t Table, row int, header string) string {
	for i, h := range t.Header {
		if h == header {
			return t.Rows[row][i]
		}
	}
	return ""
}

func parseMs(s string) float64 {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func parsePct(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v / 100
}

func TestTableFormatAndMarkdown(t *testing.T) {
	tab := Table{
		ID: "x", Title: "T", Header: []string{"a", "bb"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	txt := tab.Format()
	if !strings.Contains(txt, "== x — T ==") || !strings.Contains(txt, "note: n") {
		t.Errorf("Format output missing parts:\n%s", txt)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown output missing parts:\n%s", md)
	}
}

func TestIDsAndByID(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("IDs = %d, want 20", len(ids))
	}
	if _, ok := ByID("nope", quick()); ok {
		t.Error("unknown ID accepted")
	}
	tab, ok := ByID("table2", quick())
	if !ok || tab.ID != "table2" {
		t.Errorf("ByID(table2) = %v %v", tab.ID, ok)
	}
}

func TestFigure2Shape(t *testing.T) {
	tab := Figure2(quick())
	// 4 videos × (edge + 5 BU levels + cloud) = 28 rows.
	if len(tab.Rows) != 28 {
		t.Fatalf("rows = %d, want 28", len(tab.Rows))
	}
	// For every video: edge is fastest, cloud most accurate, croesus BU
	// increases monotonically with the target.
	for v := 0; v < 4; v++ {
		base := v * 7
		edgeLat := parseMs(cell(tab, base, "final ms"))
		cloudLat := parseMs(cell(tab, base+6, "final ms"))
		cloudF := cell(tab, base+6, "F-score")
		if edgeLat >= cloudLat {
			t.Errorf("video %d: edge latency %.0f not below cloud %.0f", v, edgeLat, cloudLat)
		}
		if cloudF != "1.000" {
			t.Errorf("video %d: cloud F = %s, want 1.000", v, cloudF)
		}
		prevBU := -1.0
		for i := 1; i <= 5; i++ {
			bu := parsePct(cell(tab, base+i, "BU"))
			if bu < prevBU-0.02 {
				t.Errorf("video %d: BU not increasing at level %d (%.2f < %.2f)", v, i, bu, prevBU)
			}
			prevBU = bu
		}
		// Higher BU must not hurt final accuracy much; BU≈100% ≈ cloud.
		fLow := parseFloat(cell(tab, base+1, "F-score"))
		fHigh := parseFloat(cell(tab, base+5, "F-score"))
		if fHigh < fLow-0.02 {
			t.Errorf("video %d: F at full BU (%.3f) below F at 0 BU (%.3f)", v, fHigh, fLow)
		}
	}
}

func parseFloat(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := Table1(quick())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		croAcc := parseX(cell(tab, i, "acc Croesus"))
		edgeAcc := parseX(cell(tab, i, "acc Edge"))
		if croAcc < edgeAcc-0.01 {
			t.Errorf("%s: croesus accuracy %.2f below edge %.2f", row[0], croAcc, edgeAcc)
		}
		if croAcc < 0.7 {
			t.Errorf("%s: croesus accuracy %.2f too low for µ=0.8 optimum", row[0], croAcc)
		}
	}
	// v3 (airport): edge is already accurate; optimal BU near zero.
	if bu := parsePct(cell(tab, 2, "BU")); bu > 0.3 {
		t.Errorf("airport optimal BU = %.2f, want near 0", bu)
	}
}

func parseX(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	return v
}

func TestFigure3Shape(t *testing.T) {
	tab := Figure3(quick())
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(pair string, col string) float64 {
		for i, row := range tab.Rows {
			if row[0] == pair {
				if col == "BU" {
					return parsePct(cell(tab, i, col))
				}
				return parseFloat(cell(tab, i, col))
			}
		}
		t.Fatalf("pair %s not found", pair)
		return 0
	}
	// (0.5,0.5): empty validate interval → BU 0.
	if bu := get("(0.5,0.5)", "BU"); bu != 0 {
		t.Errorf("(0.5,0.5) BU = %.2f, want 0", bu)
	}
	// Widening θU raises BU.
	if get("(0.5,0.6)", "BU") >= get("(0.5,0.9)", "BU") {
		t.Error("BU not increasing with θU")
	}
	// The paper's key observation: (0.5,0.6) validates the error-dense
	// band and beats (0.6,0.7) on accuracy.
	if get("(0.5,0.6)", "F-score") <= get("(0.6,0.7)", "F-score") {
		t.Errorf("F(0.5,0.6)=%.3f not above F(0.6,0.7)=%.3f",
			get("(0.5,0.6)", "F-score"), get("(0.6,0.7)", "F-score"))
	}
}

func TestTable2Shape(t *testing.T) {
	tab := Table2(quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Detection latency must increase with model size; F stays in band.
	prev := -1.0
	for i, row := range tab.Rows {
		lat := parseFloat(cell(tab, i, "detect latency s"))
		if lat <= prev {
			t.Errorf("row %v: detect latency %.2f not increasing", row[0], lat)
		}
		prev = lat
		if f := parseFloat(cell(tab, i, "F-score")); f < 0.7 {
			t.Errorf("%s: F = %.3f below the µ band", row[0], f)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	tab := Figure4(quick())
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(tab.Rows))
	}
	for v := 0; v < 4; v++ {
		base := v * 4
		smallDiff := parseMs(cell(tab, base, "final ms"))
		smallSame := parseMs(cell(tab, base+1, "final ms"))
		regDiff := parseMs(cell(tab, base+2, "final ms"))
		regSame := parseMs(cell(tab, base+3, "final ms"))
		// Same-location must not be slower than different-location for
		// the same machine; regular edge must not be slower than small.
		if smallSame > smallDiff+1 {
			t.Errorf("video %d: same-site slower than cross-country (small edge)", v)
		}
		if regSame > regDiff+1 {
			t.Errorf("video %d: same-site slower than cross-country (regular edge)", v)
		}
		if regDiff > smallDiff+1 {
			t.Errorf("video %d: regular edge slower than small edge", v)
		}
		_ = regSame
	}
}

func TestFigure5Shape(t *testing.T) {
	tab := Figure5(quick())
	// Two videos × 6 θL rows.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	if len(tab.Notes) < 2 {
		t.Fatal("missing optimizer notes")
	}
	for _, n := range tab.Notes {
		if !strings.Contains(n, "fewer evaluations") {
			t.Errorf("note missing speedup: %s", n)
		}
	}
}

func TestFigure6aShape(t *testing.T) {
	tab := Figure6a(quick())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	msiaHold, err1 := time.ParseDuration(cell(tab, 0, "mean lock hold"))
	mssrHold, err2 := time.ParseDuration(cell(tab, 1, "mean lock hold"))
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable holds: %v %v", err1, err2)
	}
	// The paper's contrast: MS-IA holds locks for milliseconds, MS-SR for
	// hundreds of milliseconds (the cloud round trip). Require at least
	// an order of magnitude.
	if mssrHold < 10*msiaHold {
		t.Errorf("MS-SR hold %v not ≫ MS-IA hold %v", mssrHold, msiaHold)
	}
	if msiaHold > 50*time.Millisecond {
		t.Errorf("MS-IA hold %v not at millisecond scale", msiaHold)
	}
	if mssrHold < 50*time.Millisecond {
		t.Errorf("MS-SR hold %v should approach the cloud path latency", mssrHold)
	}
}

func TestFigure6bShape(t *testing.T) {
	tab := Figure6b(quick())
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prevRate := 2.0
	for i, row := range tab.Rows {
		mssr := parsePct(cell(tab, i, "MS-SR abort rate"))
		msia := parsePct(cell(tab, i, "MS-IA abort rate"))
		if msia != 0 {
			t.Errorf("key range %s: MS-IA abort rate %.2f, want 0", row[0], msia)
		}
		if mssr > prevRate+0.10 {
			t.Errorf("key range %s: abort rate %.2f increased with larger key space", row[0], mssr)
		}
		prevRate = mssr
	}
	// Small hot spot must abort heavily; huge one barely.
	if first := parsePct(cell(tab, 0, "MS-SR abort rate")); first < 0.3 {
		t.Errorf("100-key abort rate %.2f, want significant", first)
	}
	if last := parsePct(cell(tab, 6, "MS-SR abort rate")); last > 0.2 {
		t.Errorf("100k-key abort rate %.2f, want small", last)
	}
}

func TestFigure6cShape(t *testing.T) {
	tab := Figure6c(quick())
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cloud := parseMs(cell(tab, 0, "final ms"))
	cloudComp := parseMs(cell(tab, 1, "final ms"))
	cloudCompDiff := parseMs(cell(tab, 2, "final ms"))
	// Compression helps, but only a little: detection dominates.
	if cloudComp >= cloud {
		t.Errorf("compression did not improve cloud latency: %.0f vs %.0f", cloudComp, cloud)
	}
	if cloudCompDiff >= cloudComp {
		t.Errorf("difference communication did not help: %.0f vs %.0f", cloudCompDiff, cloudComp)
	}
	if (cloud-cloudCompDiff)/cloud > 0.25 {
		t.Errorf("hybrid techniques improved too much (%.0f → %.0f): detection should dominate", cloud, cloudCompDiff)
	}
	// Traffic must shrink down the rows of each system group.
	mbCloud := parseFloat(cell(tab, 0, "edge-cloud MB"))
	mbComp := parseFloat(cell(tab, 2, "edge-cloud MB"))
	if mbComp >= mbCloud {
		t.Error("preprocessors did not reduce traffic")
	}
}

func TestAblationPolicyShape(t *testing.T) {
	tab := AblationPolicy(quick())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	waitAborts := parsePct(cell(tab, 0, "abort rate"))
	noWaitAborts := parsePct(cell(tab, 1, "abort rate"))
	// Both policies shed load under a hot spot; the structural difference
	// is that only Wait ever queues on locks. (Wait-die can abort more or
	// less than no-wait: waiting stretches lock windows, creating new
	// conflicts even as safe waits avoid some aborts.)
	if waitAborts <= 0 || noWaitAborts <= 0 {
		t.Errorf("expected aborts under contention: wait=%.2f nowait=%.2f", waitAborts, noWaitAborts)
	}
	waitQueued := parseFloat(cell(tab, 0, "lock waits"))
	noWaitQueued := parseFloat(cell(tab, 1, "lock waits"))
	if waitQueued == 0 {
		t.Error("Wait policy never queued on a lock")
	}
	if noWaitQueued != 0 {
		t.Errorf("NoWait policy queued %v times, want 0", noWaitQueued)
	}
}

func TestAblationSequencerShape(t *testing.T) {
	tab := AblationSequencer(quick())
	seqWaits := parseFloat(cell(tab, 0, "lock waits"))
	rawWaits := parseFloat(cell(tab, 1, "lock waits"))
	if seqWaits != 0 {
		t.Errorf("sequencer lock waits = %.0f, want 0", seqWaits)
	}
	if rawWaits == 0 {
		t.Error("unsequenced run should queue on locks")
	}
}

func TestAblationChainShape(t *testing.T) {
	tab := AblationChain(quick())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Both chains must reach decent accuracy; the 3-stage run must stop
	// some frames at the intermediate stage.
	stops := cell(tab, 1, "frames stopped at s0/s1/s2")
	parts := strings.Split(stops, "/")
	if len(parts) != 3 {
		t.Fatalf("stops = %q", stops)
	}
	mid := parseFloat(parts[1])
	if mid == 0 {
		t.Error("no frames terminated at the regional stage")
	}
}

func TestAblationSmoothingShape(t *testing.T) {
	// The corrector needs enough frames to amortize its learning phase;
	// at the 60-frame quick scale it has barely settled any tracks.
	o := quick()
	o.Frames = 140
	tab := AblationSmoothing(o)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	baseBU := parsePct(cell(tab, 0, "BU"))
	smoothBU := parsePct(cell(tab, 1, "BU"))
	smoothF := parseFloat(cell(tab, 1, "F-score"))
	matchedF := parseFloat(cell(tab, 2, "F-score"))
	if smoothBU >= baseBU {
		t.Errorf("smoothing BU %.2f not below baseline %.2f", smoothBU, baseBU)
	}
	if smoothF <= matchedF {
		t.Errorf("at matched BU, smoothing F %.3f not above baseline %.3f", smoothF, matchedF)
	}
}

func TestAblationTwoPCShape(t *testing.T) {
	tab := AblationTwoPC(quick())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	mssrRounds := parseFloat(cell(tab, 0, "2PC rounds"))
	msiaRounds := parseFloat(cell(tab, 1, "2PC rounds"))
	if msiaRounds != 2*mssrRounds {
		t.Errorf("MS-IA rounds %v, want double MS-SR's %v", msiaRounds, mssrRounds)
	}
	if vis := cell(tab, 0, "initial-commit visible early"); !strings.HasPrefix(vis, "0/") {
		t.Errorf("MS-SR early visibility = %s, want 0/n", vis)
	}
	if vis := cell(tab, 1, "initial-commit visible early"); strings.HasPrefix(vis, "0/") {
		t.Errorf("MS-IA early visibility = %s, want all", vis)
	}
}

func TestClusterScaleShape(t *testing.T) {
	tab := ClusterScale(quick())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	prevFPS := 0.0
	for i := range tab.Rows {
		fps, err := strconv.ParseFloat(cell(tab, i, "fps"), 64)
		if err != nil {
			t.Fatalf("row %d: unparseable fps: %v", i, err)
		}
		// Fleet throughput grows with camera count.
		if fps <= prevFPS {
			t.Errorf("row %d: throughput %.1f did not grow past %.1f", i, fps, prevFPS)
		}
		prevFPS = fps
	}
	// Batching amortization: the 16-camera fleet forms real batches.
	mean, _ := strconv.ParseFloat(cell(tab, len(tab.Rows)-1, "mean batch"), 64)
	if mean <= 1.5 {
		t.Errorf("16-camera mean batch %.2f — the batcher never coalesced", mean)
	}
}

func TestCluster2PCShape(t *testing.T) {
	tab := Cluster2PC(quick())
	// 2 protocols × 3 cross-edge fractions.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for i := range tab.Rows {
		cross, err := strconv.Atoi(cell(tab, i, "x-edge commits"))
		if err != nil {
			t.Fatalf("row %d: unparseable cross-edge commits: %v", i, err)
		}
		frac := parsePct(cell(tab, i, "cross-edge"))
		if frac == 0 && cross != 0 {
			t.Errorf("row %d: %d cross-edge commits at fraction 0", i, cross)
		}
		if frac > 0 && cross == 0 {
			t.Errorf("row %d: no cross-edge commits at fraction %.2f", i, frac)
		}
	}
	// Same workload, same fraction: MS-IA commits atomically twice per
	// cross-edge transaction, MS-SR once — strictly more rounds.
	for off := 1; off < 3; off++ {
		msiaRounds, _ := strconv.Atoi(cell(tab, off, "2PC rounds"))
		mssrRounds, _ := strconv.Atoi(cell(tab, 3+off, "2PC rounds"))
		if msiaRounds <= mssrRounds {
			t.Errorf("fraction row %d: MS-IA rounds %d not above MS-SR %d", off, msiaRounds, mssrRounds)
		}
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "gap") {
		t.Error("missing final-commit latency gap note")
	}
}

func TestClusterShedShape(t *testing.T) {
	tab := ClusterShed(quick())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	prevShed := -1
	for i := range tab.Rows {
		shed, err := strconv.Atoi(cell(tab, i, "shed"))
		if err != nil {
			t.Fatalf("row %d: unparseable shed: %v", i, err)
		}
		// Tighter admission caps shed at least as much.
		if shed < prevShed {
			t.Errorf("row %d: shed %d fell below looser cap's %d", i, shed, prevShed)
		}
		prevShed = shed
		if v := cell(tab, i, "SLO violations"); v != "0" {
			t.Errorf("row %d: %s SLO violations under overload", i, v)
		}
	}
	if prevShed == 0 {
		t.Error("starved cloud shed nothing")
	}
}

func TestClusterFaultsShape(t *testing.T) {
	tab := ClusterFaults(quick())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want one per protocol", len(tab.Rows))
	}
	for i := range tab.Rows {
		crashes, err := strconv.Atoi(cell(tab, i, "crashes"))
		if err != nil || crashes < 2 {
			t.Errorf("row %d: crashes = %q, want the scripted schedule (≥2)", i, cell(tab, i, "crashes"))
		}
		if cell(tab, i, "restarts") != cell(tab, i, "crashes") {
			t.Errorf("row %d: restarts %s != crashes %s — fleet must end healed",
				i, cell(tab, i, "restarts"), cell(tab, i, "crashes"))
		}
		avail := parsePct(cell(tab, i, "availability"))
		if avail <= 0.5 || avail > 1.0 {
			t.Errorf("row %d: availability %.2f out of range", i, avail)
		}
	}
	// Determinism of the whole harness: regenerating the table gives the
	// same bytes.
	again := ClusterFaults(quick())
	if tab.Format() != again.Format() {
		t.Error("cluster-faults experiment not deterministic across runs")
	}
}
