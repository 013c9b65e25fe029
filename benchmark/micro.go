package main

// The micro-drivers (source M of the per-layer metrics): fixed operation
// counts against each layer's public functions, fresh state per batch, the
// median of five batches. They run in a child process of their own so that
// process-global caches (the randsrc seed memo, sync.Pools) start cold and
// nothing leaks between them and a workload.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"croesus/internal/cluster"
	"croesus/internal/core"
	"croesus/internal/detect"
	"croesus/internal/lock"
	"croesus/internal/netsim"
	"croesus/internal/obs"
	"croesus/internal/randsrc"
	"croesus/internal/scenario"
	"croesus/internal/store"
	"croesus/internal/tcpnet"
	"croesus/internal/transport"
	"croesus/internal/twopc"
	"croesus/internal/txn"
	"croesus/internal/vclock"
	"croesus/internal/video"
	"croesus/internal/wal"
	"croesus/internal/wire"
)

const microBatches = 5

// microSeed is fixed: the rows are properties of the code, not of a
// workload's inputs, and they are the same in every workload's report.
const microSeed = 42

// micros collects the rows. Each driver hands measure a batch function that
// builds fresh state and returns the function to time (and a clean-up).
type micros struct {
	out   map[string]float64
	scale int // divides operation counts (-short)
	dir   string
}

// n scales an operation count down for -short.
func (m *micros) n(ops int) int {
	if ops /= m.scale; ops < 1 {
		ops = 1
	}
	return ops
}

// measure runs the batches and returns the median time per operation in
// nanoseconds and the median allocations per operation.
func (m *micros) measure(ops int, batch func(ops int) (run func(), done func())) (ns, allocs float64) {
	var nss, as []float64
	for i := 0; i < microBatches; i++ {
		run, done := batch(ops)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if done != nil {
			done()
		}
		nss = append(nss, float64(d.Nanoseconds())/float64(ops))
		as = append(as, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	return median(nss), median(as)
}

func (m *micros) ns(name string, ops int, batch func(ops int) (func(), func())) {
	m.out[name], _ = m.measure(m.n(ops), batch)
}

func (m *micros) nsAllocs(name, allocName string, ops int, batch func(ops int) (func(), func())) {
	m.out[name], m.out[allocName] = m.measure(m.n(ops), batch)
}

func (m *micros) us(name string, ops int, batch func(ops int) (func(), func())) {
	ns, _ := m.measure(m.n(ops), batch)
	m.out[name] = ns / 1e3
}

// must aborts the micro-drivers; runMicro reports it as the child's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func runMicro(procs int, short bool) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("micro-driver: %v", p)
		}
	}()
	runtime.GOMAXPROCS(procs)
	dir, err := os.MkdirTemp("", "micro")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m := &micros{out: map[string]float64{}, scale: 1, dir: dir}
	if short {
		m.scale = 20
	}
	m.models()
	m.generators()
	m.storage()
	m.transactions()
	m.logging()
	m.sharding()
	m.clocks()
	m.codec()
	m.servers()
	m.setup()
	return json.NewEncoder(os.Stdout).Encode(m.out)
}

func microFrames(n int) []*video.Frame {
	return video.NewGenerator(video.StreetVehicles(), derive(microSeed, "micro", 0)).Generate(n)
}

func (m *micros) models() {
	frames := microFrames(64)
	edge, cloud := detect.TinyYOLOSim(microSeed), detect.YOLOv3Sim(detect.YOLO416, microSeed)
	detectLoop := func(model detect.Model) func(int) (func(), func()) {
		return func(ops int) (func(), func()) {
			return func() {
				for i := 0; i < ops; i++ {
					model.Detect(frames[i%len(frames)])
				}
			}, nil
		}
	}
	m.nsAllocs("detect.edge_detect_ns", "detect.edge_detect_allocs", 20000, detectLoop(edge))
	m.ns("detect.cloud_detect_ns", 20000, detectLoop(cloud))

	// The seed memo holds 4096 entries and resets wholesale when full:
	// 1024 live seeds, expanded once before timing, stay inside it; a cycle
	// of 16384 never finds its seed still there.
	cycle := func(live int) func(int) (func(), func()) {
		return func(ops int) (func(), func()) {
			for s := 0; s < live && live <= 4096; s++ {
				randsrc.Put(randsrc.Get(int64(s + 1)))
			}
			return func() {
				for i := 0; i < ops; i++ {
					randsrc.Put(randsrc.Get(int64(i%live + 1)))
				}
			}, nil
		}
	}
	m.ns("randsrc.get_warm_ns", 200000, cycle(1024))
	m.ns("randsrc.get_cold_ns", 8192, cycle(16384))
}

func (m *micros) generators() {
	m.ns("video.next_frame_ns", 20000, func(ops int) (func(), func()) {
		g := video.NewGenerator(video.StreetVehicles(), derive(microSeed, "micro", 1))
		return func() {
			for i := 0; i < ops; i++ {
				g.Next()
			}
		}, nil
	})

	frames := microFrames(32)
	edge, cloud := detect.TinyYOLOSim(microSeed), detect.YOLOv3Sim(detect.YOLO416, microSeed)
	type pair struct{ e, c []detect.Detection }
	pairs := make([]pair, len(frames))
	var dets []detect.Detection
	for i, f := range frames {
		pairs[i] = pair{edge.Detect(f).Detections, cloud.Detect(f).Detections}
		dets = append(dets, pairs[i].e...)
	}
	m.ns("core.match_labels_ns", 50000, func(ops int) (func(), func()) {
		return func() {
			for i := 0; i < ops; i++ {
				p := pairs[i%len(pairs)]
				core.MatchLabels(p.e, p.c, 0.10)
			}
		}, nil
	})
	m.ns("core.txn_for_ns", 5000, func(ops int) (func(), func()) {
		src := core.NewWorkloadSource(500, derive(microSeed, "micro.keys", 0))
		return func() {
			for i := 0; i < ops; i++ {
				src.TxnFor(i, dets[i%len(dets)])
			}
		}, nil
	})
}

func (m *micros) storage() {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = store.ItoaKey("item", i)
	}
	v := store.Int64Value(42)
	m.ns("store.put_ns", 500000, func(ops int) (func(), func()) {
		st := store.New()
		return func() {
			for i := 0; i < ops; i++ {
				st.Put(keys[i%len(keys)], v)
			}
		}, nil
	})
	m.ns("store.get_ns", 500000, func(ops int) (func(), func()) {
		st := store.New()
		for _, k := range keys {
			st.Put(k, v)
		}
		return func() {
			for i := 0; i < ops; i++ {
				st.Get(keys[i%len(keys)])
			}
		}, nil
	})
	m.ns("lock.acquire_release4_ns", 50000, func(ops int) (func(), func()) {
		lm := lock.NewManager(vclock.NewReal())
		reqs := lock.Normalize([]lock.Request{
			{Key: keys[0], Mode: lock.Exclusive}, {Key: keys[1], Mode: lock.Exclusive},
			{Key: keys[2], Mode: lock.Shared}, {Key: keys[3], Mode: lock.Shared},
		})
		return func() {
			for i := 0; i < ops; i++ {
				o := lock.Owner(i + 1)
				lm.AcquireAll(o, reqs)
				lm.ReleaseAll(o, reqs)
			}
		}, nil
	})
}

// microTxn is a two-section transaction: three writes, then one.
func microTxn(keys [3]string) *txn.Txn {
	return &txn.Txn{
		Name:      "micro",
		InitialRW: txn.RWSet{Writes: keys[:]},
		FinalRW:   txn.RWSet{Writes: keys[:1]},
		Initial: func(c *txn.Ctx) error {
			for i, k := range keys {
				c.Put(k, store.Int64Value(int64(i)))
			}
			return nil
		},
		Final: func(c *txn.Ctx) error {
			c.Put(keys[0], store.Int64Value(9))
			return nil
		},
	}
}

// runTxns drives ops initial+final pairs through cc as a participant of
// the simulated clock.
func runTxns(clk *vclock.Sim, mgr *txn.Manager, cc txn.CC, body *txn.Txn, ops int) func() {
	return func() {
		clk.Run(func() {
			for i := 0; i < ops; i++ {
				inst := mgr.NewInstance(body, nil)
				must(cc.RunInitial(inst))
				must(cc.RunFinal(inst))
			}
		})
	}
}

func (m *micros) transactions() {
	body := microTxn([3]string{"a", "b", "c"})
	local := func(mk func(*txn.Manager) txn.CC) func(int) (func(), func()) {
		return func(ops int) (func(), func()) {
			clk := vclock.NewSim()
			mgr := txn.NewManager(clk, store.New(), lock.NewManager(clk))
			return runTxns(clk, mgr, mk(mgr), body, ops), nil
		}
	}
	m.nsAllocs("txn.msia_txn_ns", "txn.msia_txn_allocs", 20000,
		local(func(mgr *txn.Manager) txn.CC { return &txn.MSIA{M: mgr} }))
	m.nsAllocs("txn.mssr_txn_ns", "txn.mssr_txn_allocs", 20000,
		local(func(mgr *txn.Manager) txn.CC { return &txn.MSSR{M: mgr, Policy: txn.Wait} }))
}

func walRecord(i int) wal.Record {
	return wal.Record{Op: wal.OpPut, Key: store.ItoaKey("item", i%4096), Value: store.Int64Value(int64(i))}
}

func (m *micros) openLog(name string, noSync bool) *wal.Log {
	path := filepath.Join(m.dir, name)
	must(os.RemoveAll(path))
	l, err := wal.Open(path)
	must(err)
	l.NoSync = noSync
	return l
}

func (m *micros) logging() {
	logged := m.n(50000)
	m.ns("wal.append_nosync_ns", 50000, func(ops int) (func(), func()) {
		l := m.openLog("append.wal", true)
		return func() {
			for i := 0; i < ops; i++ {
				must(l.Append(walRecord(i)))
			}
		}, func() { must(l.Close()) }
	})
	m.ns("wal.append_batch8_nosync_ns", 10000, func(ops int) (func(), func()) {
		l := m.openLog("batch.wal", true)
		recs := make([]wal.Record, 8)
		return func() {
			for i := 0; i < ops; i++ {
				for j := range recs {
					recs[j] = walRecord(i*8 + j)
				}
				must(l.AppendBatch(recs))
			}
		}, func() { must(l.Close()) }
	})
	// Informational: with fsync the log is bound by the sandbox's disk.
	m.us("wal.append_fsync_us", 20, func(ops int) (func(), func()) {
		l := m.openLog("fsync.wal", false)
		return func() {
			for i := 0; i < ops; i++ {
				must(l.Append(walRecord(i)))
			}
		}, func() { must(l.Close()) }
	})
	// Recover the log the first driver's last batch left behind.
	path := filepath.Join(m.dir, "append.wal")
	ns, _ := m.measure(1, func(int) (func(), func()) {
		return func() {
			res, err := wal.Recover(path)
			must(err)
			if res.Records != logged {
				panic(fmt.Sprintf("recovered %d records of %d", res.Records, logged))
			}
		}, nil
	})
	m.out["wal.recover_krec_per_s"] = float64(logged) / 1e3 / (ns / 1e9)
}

func (m *micros) sharding() {
	// Two partitions a 1 ms (virtual) link apart; every transaction writes
	// on both, so each section commit is a 2PC round.
	partitioner := func(key string) int { return int(key[0] - '0') }
	body := microTxn([3]string{"0a", "1b", "1c"})
	m.out["twopc.cross_commit_us"], m.out["twopc.cross_commit_allocs"] = m.measure(m.n(5000), func(ops int) (func(), func()) {
		clk := vclock.NewSim()
		parts := []*twopc.Partition{
			twopc.NewPartitionOver(0, store.New(), lock.NewManager(clk)),
			twopc.NewPartitionOver(1, store.New(), lock.NewManager(clk)),
		}
		mgr := txn.NewManager(clk, nil, nil)
		mgr.DB = &twopc.ShardedStore{Parts: parts, Partitioner: partitioner}
		cc := &twopc.ShardedCC{
			Clk: clk, M: mgr, Home: 0, Parts: parts,
			Links:       []transport.Path{nil, &netsim.Link{Name: "0-1", Propagation: time.Millisecond}},
			Partitioner: partitioner, Protocol: twopc.MSIA, Stats: &twopc.DistStats{},
		}
		return runTxns(clk, mgr, cc, body, ops), func() {
			if got := cc.Stats.Snapshot().CrossEdgeCommits; got == 0 {
				panic("twopc micro-driver ran no cross-partition commit")
			}
		}
	})
	m.out["twopc.cross_commit_us"] /= 1e3

	ns, _ := m.measure(1, func(int) (func(), func()) {
		st := store.New()
		for i := 0; i < m.n(10000); i++ {
			st.Put(store.ItoaKey("item", i), store.Int64Value(int64(i)))
		}
		p := twopc.NewPartitionOver(0, st, lock.NewManager(vclock.NewReal()))
		p.WAL = m.openLog("checkpoint.wal", true)
		return func() {
				_, ok, err := p.Checkpoint()
				must(err)
				if !ok {
					panic("checkpoint skipped")
				}
			}, func() {
				must(p.CloseWAL())
			}
	})
	m.out["twopc.checkpoint_ms"] = ns / 1e6
}

func (m *micros) clocks() {
	const sleepers = 16
	m.ns("vclock.sleep_wake_ns", 32000, func(ops int) (func(), func()) {
		per := ops / sleepers // 32000 and its -short scaling divide evenly
		return func() {
			s := vclock.NewSim()
			for g := 0; g < sleepers; g++ {
				g := g
				s.Go(func() {
					for k := 0; k < per; k++ {
						s.Sleep(time.Duration(g+k%8+1) * time.Millisecond)
					}
				})
			}
			s.Wait()
		}, nil
	})

	// Two participants hand a token back and forth through one-shot gates.
	m.ns("vclock.gate_handoff_ns", 100000, func(ops int) (func(), func()) {
		return func() {
			s := vclock.NewSim()
			rounds := ops / 2
			ping, pong := make([]vclock.Gate, rounds), make([]vclock.Gate, rounds)
			for i := range ping {
				ping[i], pong[i] = s.NewGate(), s.NewGate()
			}
			s.Go(func() {
				for i := 0; i < rounds; i++ {
					ping[i].Fire()
					pong[i].Wait()
				}
			})
			s.Go(func() {
				for i := 0; i < rounds; i++ {
					ping[i].Wait()
					pong[i].Fire()
				}
			})
			s.Wait()
		}, nil
	})

	m.ns("transport.sim_send_ns", 100000, func(ops int) (func(), func()) {
		tr := transport.NewSim()
		must(tr.Provision([]transport.EdgeProfile{{ID: "a"}}))
		clk := vclock.NewSim()
		path := tr.ClientEdge(0)
		return func() {
			clk.Run(func() {
				for i := 0; i < ops; i++ {
					path.Send(clk, 32<<10)
				}
			})
		}, func() { must(tr.Close()) }
	})
}

func (m *micros) codec() {
	frame := microFrames(1)[0]
	big := &wire.Envelope{Kind: wire.KindFrame, Frame: &wire.Frame{Frame: *frame, Padding: make([]byte, 32<<10)}}
	labels := detect.TinyYOLOSim(microSeed).Detect(frame).Detections
	if len(labels) > 4 {
		labels = labels[:4]
	}
	small := &wire.Envelope{Kind: wire.KindInitialReply, InitialReply: &wire.InitialReply{FrameIndex: 1, Labels: labels, Triggered: 1}}
	// One message across net.Pipe: encode, one Write, one decode — with
	// Recv, as the tcpnet sessions receive (RecvReuse only recycles the
	// transport switch's payload envelopes).
	pipe := func(env *wire.Envelope) func(int) (func(), func()) {
		return func(ops int) (func(), func()) {
			a, b := net.Pipe()
			tx, rx := wire.NewConn(a), wire.NewConn(b)
			return func() {
					done := make(chan error, 1)
					go func() {
						for i := 0; i < ops; i++ {
							if _, err := rx.Recv(); err != nil {
								done <- err
								return
							}
						}
						done <- nil
					}()
					for i := 0; i < ops; i++ {
						must(tx.Send(env))
					}
					must(<-done)
				}, func() {
					tx.Close()
					rx.Close()
				}
		}
	}
	m.nsAllocs("wire.frame32k_roundtrip_ns", "wire.frame32k_allocs", 2000, pipe(big))
	m.ns("wire.msg256_roundtrip_ns", 20000, pipe(small))
}

func (m *micros) servers() {
	frames := microFrames(64)

	// One frame at a time through an edge that never validates: the socket,
	// session and pipeline path of an initial commit, no cloud.
	m.us("tcpnet.edge_only_rtt_us", 200, func(ops int) (func(), func()) {
		edge, err := tcpnet.NewEdgeServer(tcpnet.EdgeConfig{
			EdgeModel: detect.TinyYOLOSim(microSeed), TimeScale: tcpTimeScale,
			ThetaL: 0.5, ThetaU: 0.5,
			Source: core.NewWorkloadSource(500, derive(microSeed, "micro.keys", 1)),
		})
		must(err)
		addr, err := edge.Listen("127.0.0.1:0")
		must(err)
		cl, err := tcpnet.Dial(addr)
		must(err)
		return func() {
				for i := 0; i < ops; i++ {
					f := *frames[i%len(frames)]
					f.Index = i
					must(cl.Submit(&f, 0))
					_, err := cl.WaitFrame(i, frameTimeout)
					must(err)
				}
			}, func() {
				cl.Close()
				must(edge.Close())
			}
	})

	// Eight concurrent validations fill one batch of the cloud batcher.
	m.us("cluster.batcher_submit8_us", 100, func(ops int) (func(), func()) {
		clk := vclock.NewScaledReal(tcpTimeScale)
		b, err := cluster.NewBatcher(cluster.BatcherConfig{Clock: clk, Model: detect.YOLOv3Sim(detect.YOLO416, microSeed), MaxBatch: 8})
		must(err)
		return func() {
			var wg sync.WaitGroup
			for i := 0; i < ops; i++ {
				for j := 0; j < 8; j++ {
					wg.Add(1)
					go func(f *video.Frame) {
						defer wg.Done()
						b.Validate(core.ValidationRequest{Frame: f, Margin: 1})
					}(frames[(i*8+j)%len(frames)])
				}
				wg.Wait()
			}
		}, nil
	})
}

func (m *micros) setup() {
	sz := fullSizes
	if m.scale > 1 {
		sz = shortSizes
	}
	raw, err := genSimFleet(microSeed, sz).Encode()
	must(err)
	ns, _ := m.measure(1, func(int) (func(), func()) {
		var rt *scenario.Runtime
		return func() {
			s, err := scenario.Decode(raw)
			must(err)
			rt, err = scenario.NewObserved(s, vclock.NewSim(), nil, nil)
			must(err)
		}, func() { rt.Cluster.Close() }
	})
	m.out["scenario.decode_build_ms"] = ns / 1e6

	m.ns("obs.span_emit_ns", 200000, func(ops int) (func(), func()) {
		o := &obs.Obs{Trace: obs.NewTracerCap(ops), Reg: obs.NewRegistry()}
		ctx := obs.SpanContext{Trace: 1, Span: 2}
		tags := obs.Tags("edge", "e00", "protocol", "MS-IA")
		return func() {
			for i := 0; i < ops; i++ {
				o.SpanCtx(ctx, obs.SpanEdgeDetect, tags, time.Duration(i), time.Duration(i+1))
			}
		}, nil
	})
}
