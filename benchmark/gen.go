package main

// The seeded input generator. Everything a workload feeds the program under
// test — scenario JSON, camera seeds, key-space seed, frame-stream sizes —
// is derived here from -seed and written to benchmark/out/<workload>/; the
// child process that runs the workload reads only those files.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"croesus/internal/scenario"
	"croesus/internal/video"
)

// sizes are the knobs that differ between the full benchmark and the -short
// smoke run; everything else about a workload is fixed.
type sizes struct {
	fleetCams, fleetEdges, fleetFrames       int
	shardedCams, shardedEdges, shardedFrames int
	pacedWarm, pacedTimed                    int // per connection
	satWarm, satTimed                        int // per connection
}

var (
	fullSizes = sizes{
		fleetCams: 256, fleetEdges: 64, fleetFrames: 64,
		shardedCams: 64, shardedEdges: 16, shardedFrames: 48,
		pacedWarm: 125, pacedTimed: 750,
		satWarm: 250, satTimed: 5000,
	}
	shortSizes = sizes{
		fleetCams: 16, fleetEdges: 4, fleetFrames: 8,
		shardedCams: 8, shardedEdges: 4, shardedFrames: 16,
		pacedWarm: 20, pacedTimed: 100,
		satWarm: 20, satTimed: 200,
	}
)

// tcpTimeScale is the TimeScale of the tcp_* servers, and of the micro-drivers
// that time their paths in isolation. At 1e-7 the modelled inference (20 ns,
// 112 ns) has expired by the time the scheduler looks at the timer, so the
// software path is what is timed; at 1e-4 a sub-millisecond Go sleep in an
// otherwise idle process costs a 1.1 ms timer quantum (README.md, "Sizing
// observations").
const tcpTimeScale = 1e-7

// tcpConns is the number of client connections (and driver goroutines) of
// the tcp_* workloads: the container's two cores. Fixed rather than read
// from the host so the offered load is the same wherever the benchmark runs.
const tcpConns = 2

// manifest is the input contract between generator and child: which
// scenario files to play, or which frame streams to send through which
// server configuration.
type manifest struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Clock    string `json:"clock"` // "virtual" or "wall"
	Loop     string `json:"loop"`
	Frames   int    `json:"frames"` // frames attempted, warm-up excluded

	// sim_*: scenario files, played in order in one process.
	Scenarios []string `json:"scenarios,omitempty"`
	// Expect is what the scripted timeline must leave in the report.
	Expect *expectation `json:"expect,omitempty"`

	// tcp_*: the deployment and the streams the clients send.
	TCP     *tcpParams `json:"tcp,omitempty"`
	Streams []stream   `json:"streams,omitempty"`
}

// expectation is per play; every crash must also have restarted.
type expectation struct {
	Crashes    int `json:"crashes"`
	Migrations int `json:"migrations"`
}

type tcpParams struct {
	Protocol  string  `json:"protocol"`
	TimeScale float64 `json:"time_scale"`
	Slots     int     `json:"slots"`
	Keys      int     `json:"keys"`
	KeySeed   int64   `json:"key_seed"`
	ModelSeed int64   `json:"model_seed"`
	WAL       bool    `json:"wal"` // WALNoSync is always true, see README
	Padding   int     `json:"padding_bytes"`
	// RatePerConn > 0: open loop at that many frames/s per connection.
	// Window > 0: closed loop with that many frames outstanding.
	RatePerConn float64 `json:"rate_per_conn,omitempty"`
	Window      int     `json:"window,omitempty"`
}

// stream is one frame stream: a sim camera's single video, or the clips a
// tcp connection sends back to back.
type stream struct {
	Camera  string `json:"camera"`
	Profile string `json:"profile,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Clips   []clip `json:"clips,omitempty"`
	Warm    int    `json:"warmup_frames"`
	Timed   int    `json:"timed_frames"`
}

type clip struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	Frames  int    `json:"frames"`
}

// clipFrames is the length of one clip of a tcp stream. A connection cycles
// the five profiles in clips with seeds of their own: with one video per
// connection the scene's object density — and with it detections,
// transactions and latency per frame — followed the seed (initial p50
// 1.0–1.5 ms over ten seeds); 35 short clips average that out.
const clipFrames = 50

// modelSeed seeds the detection models. They are part of the system under
// test, not an input: every track draws its hardness from (model seed, track
// id), track ids repeat in every video, and so a model seed that followed
// -seed would move the whole fleet's accuracy together (f1_final 0.93–0.96
// over ten seeds) instead of averaging out over the cameras. It is the
// repository's default.
const modelSeed = 42

// derive is splitmix64 over (seed, salt, i): one -seed fans out into
// independent positive, non-zero per-camera and per-keyspace seeds (0 means
// "default" in a scenario file).
func derive(seed int64, salt string, i int) int64 {
	z := uint64(seed)
	for _, c := range []byte(salt) {
		z = z*1099511628211 ^ uint64(c)
	}
	z += uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z&(1<<31-1)) + 1
}

func ms(n int) scenario.Duration { return scenario.Duration(time.Duration(n) * time.Millisecond) }

// fleet builds the edges and cameras every sim scenario shares: cameras
// cycle the five video profiles and are pinned cams/edges to an edge.
func fleet(seed int64, salt string, cams, edges, frames int) ([]scenario.Edge, []scenario.Camera) {
	profiles := video.AllProfiles()
	es := make([]scenario.Edge, edges)
	for i := range es {
		es[i] = scenario.Edge{ID: fmt.Sprintf("e%02d", i)}
	}
	cs := make([]scenario.Camera, cams)
	for i := range cs {
		cs[i] = scenario.Camera{
			ID:      fmt.Sprintf("c%03d", i),
			Profile: profiles[i%len(profiles)].Name,
			Seed:    derive(seed, salt, i),
			Frames:  frames,
			Edge:    es[i*edges/cams].ID,
		}
	}
	return es, cs
}

// provisionedCloud is the batcher sizing at which neither sim fleet sheds a
// frame. The scenario schema exposes cloud_speed but not the batcher's
// slot count, so the provisioning is all in the speed.
func provisionedCloud() scenario.Batcher {
	return scenario.Batcher{MaxBatch: 8, SLO: ms(80), MaxPending: 256, CloudSpeed: 64}
}

func genSimFleet(seed int64, sz sizes) *scenario.Scenario {
	edges, cams := fleet(seed, "sim_fleet", sz.fleetCams, sz.fleetEdges, sz.fleetFrames)
	return &scenario.Scenario{
		Version: scenario.CurrentVersion,
		Name:    "bench-sim-fleet",
		Seed:    modelSeed,
		Topology: scenario.Topology{
			Edges: edges, Cameras: cams,
			Protocol: "ms-ia",
			Batcher:  provisionedCloud(),
		},
	}
}

// genSimSharded scripts its faults at fixed fractions of the stream length
// (all profiles capture at 2 frames/s), so the -short run plays the same
// story in less virtual time: 5 s, 9 s, 12 s and 15 s at 48 frames/camera.
func genSimSharded(seed int64, sz sizes, protocol string) *scenario.Scenario {
	edges, cams := fleet(seed, "sim_sharded", sz.shardedCams, sz.shardedEdges, sz.shardedFrames)
	span := sz.shardedFrames * 500 // stream length, ms
	at := func(num, den int) scenario.Duration { return ms(span * num / den) }
	// The shift raises the cross-edge share rather than skewing the keys:
	// the Zipf chooser draws in thread-arrival order and makes the simulated
	// report differ between fresh processes (README.md, "Known leaks").
	cross := 0.75
	last := len(edges) - 1
	return &scenario.Scenario{
		Version: scenario.CurrentVersion,
		Name:    "bench-sim-sharded-" + protocol,
		Seed:    modelSeed,
		Topology: scenario.Topology{
			Edges: edges, Cameras: cams,
			Protocol:          protocol,
			CrossEdgeFraction: 0.5,
			CheckpointEvery:   ms(4000),
			Batcher:           provisionedCloud(),
		},
		Timeline: []scenario.Event{
			{At: at(5, 24), Do: scenario.KindEdgeCrash, Edge: edges[1].ID, RestartAfter: ms(2000)},
			{At: at(9, 24), Do: scenario.KindMigrateCamera, Camera: cams[0].ID, To: edges[last].ID},
			{At: at(12, 24), Do: scenario.KindTwoPCCrash, Edge: edges[2].ID,
				Point: scenario.PointParticipantPrepared, Round: 1, RestartAfter: ms(1000)},
			{At: at(15, 24), Do: scenario.KindWorkloadShift, CrossEdgeFraction: &cross},
		},
	}
}

func genTCP(name string, seed int64, sz sizes) *manifest {
	profiles := video.AllProfiles()
	m := &manifest{Workload: name, Seed: seed, Clock: "wall"}
	p := &tcpParams{
		TimeScale: tcpTimeScale, Slots: 4, Keys: 500,
		KeySeed:   derive(seed, name+".keys", 0),
		ModelSeed: modelSeed,
	}
	warm, timed := sz.pacedWarm, sz.pacedTimed
	if name == "tcp_paced" {
		p.Protocol, p.Padding, p.RatePerConn = "ms-ia", 32<<10, 250
		m.Loop = fmt.Sprintf("open, %d connections x %g frames/s", tcpConns, p.RatePerConn)
	} else {
		p.Protocol, p.WAL, p.Window = "ms-sr", true, 8
		warm, timed = sz.satWarm, sz.satTimed
		m.Loop = fmt.Sprintf("closed, %d connections x %d outstanding", tcpConns, p.Window)
	}
	m.TCP = p
	for i := 0; i < tcpConns; i++ {
		st := stream{Camera: fmt.Sprintf("conn%d", i), Warm: warm, Timed: timed}
		for n, c := warm+timed, 0; n > 0; n, c = n-clipFrames, c+1 {
			st.Clips = append(st.Clips, clip{
				Profile: profiles[(i+c)%len(profiles)].Name,
				Seed:    derive(seed, name, i*1000+c),
				Frames:  min(n, clipFrames),
			})
		}
		m.Streams = append(m.Streams, st)
		m.Frames += timed
	}
	return m
}

// generate writes the workload's inputs for one seed into dir and returns
// the manifest it wrote.
func generate(name string, seed int64, sz sizes, dir string) (*manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var m *manifest
	writeScenario := func(file string, s *scenario.Scenario) error {
		b, err := s.Encode()
		if err != nil {
			return fmt.Errorf("generate %s: %w", name, err)
		}
		m.Scenarios = append(m.Scenarios, file)
		for _, c := range s.Topology.Cameras {
			m.Frames += c.Frames
			m.Streams = append(m.Streams, stream{Camera: c.ID, Profile: c.Profile, Seed: c.Seed, Timed: c.Frames})
		}
		return os.WriteFile(filepath.Join(dir, file), b, 0o644)
	}
	switch name {
	case "sim_fleet":
		m = &manifest{Workload: name, Seed: seed, Clock: "virtual", Loop: "scenario, cameras capture at 2 frames/s of virtual time"}
		if err := writeScenario("scenario.json", genSimFleet(seed, sz)); err != nil {
			return nil, err
		}
	case "sim_sharded":
		m = &manifest{Workload: name, Seed: seed, Clock: "virtual", Loop: "scenario played twice (ms-ia, ms-sr), cameras capture at 2 frames/s of virtual time",
			Expect: &expectation{Crashes: 2, Migrations: 1}}
		for _, proto := range []string{"ms-ia", "ms-sr"} {
			if err := writeScenario("scenario-"+proto+".json", genSimSharded(seed, sz, proto)); err != nil {
				return nil, err
			}
		}
	case "tcp_paced", "tcp_saturate":
		m = genTCP(name, seed, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return m, os.WriteFile(filepath.Join(dir, "manifest.json"), append(b, '\n'), 0o644)
}

func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return m, nil
}
