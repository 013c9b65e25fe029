package transport

import (
	"testing"
	"time"

	"croesus/internal/netsim"
	"croesus/internal/vclock"
)

// The token bucket is deterministic given a sequence of (now, n) arrivals:
// an uncontended message pays exactly propagation + transmission, and
// messages arriving faster than the link drains queue behind each other.
func TestShaperDeterministicDelays(t *testing.T) {
	// 10ms propagation, 1 MB/s → 1ms per 1000 bytes.
	s := NewShaper(10*time.Millisecond, 1e6)

	if d := s.Delay(0, 1000); d != 11*time.Millisecond {
		t.Fatalf("first message: got %v, want 11ms (10ms prop + 1ms tx)", d)
	}
	// Arrives while the first is still serializing (link free at t=1ms):
	// waits 1ms, transmits 2ms, plus propagation.
	if d := s.Delay(0, 2000); d != 13*time.Millisecond {
		t.Fatalf("queued message: got %v, want 13ms (1ms wait + 2ms tx + 10ms prop)", d)
	}
	// Arrives after the link drained (free at t=3ms): uncontended again.
	if d := s.Delay(20*time.Millisecond, 1000); d != 11*time.Millisecond {
		t.Fatalf("late message: got %v, want 11ms", d)
	}
}

func TestShaperBurstQueuesSequentially(t *testing.T) {
	s := NewShaper(0, 1e6) // no propagation: delays are pure serialization
	// Five 1000-byte messages all arriving at t=0 drain at 1ms spacing.
	for i := 0; i < 5; i++ {
		want := time.Duration(i+1) * time.Millisecond
		if d := s.Delay(0, 1000); d != want {
			t.Fatalf("burst message %d: got %v, want %v", i, d, want)
		}
	}
}

func TestShaperInfiniteBandwidth(t *testing.T) {
	s := NewShaper(7*time.Millisecond, 0)
	for i := 0; i < 3; i++ {
		if d := s.Delay(0, 1<<20); d != 7*time.Millisecond {
			t.Fatalf("message %d: got %v, want pure propagation 7ms", i, d)
		}
	}
}

// At low utilization the shaper's delay is exactly the modeled link's
// transfer time — the property that makes a shaped fleet comparable to sim.
// The shaper is built the way croesus-fleet hands it to an edge: as a spec.
func TestShaperMatchesLinkTransferTime(t *testing.T) {
	for _, l := range []*netsim.Link{
		netsim.ClientEdgeLink(),
		netsim.EdgeCloudCrossCountry(),
		netsim.EdgeCloudSameSite(),
		netsim.EdgeEdgeLink(),
	} {
		for _, n := range []int{0, 1000, 32 << 10, 1 << 20} {
			s, err := ParseLinkSpec(FormatLinkSpec(l)) // fresh: no queued state
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.TransferTime(n), l.TransferTime(n); got != want {
				t.Errorf("%s TransferTime(%d): shaper %v, link %v", l.Name, n, got, want)
			}
			if got, want := s.Delay(0, n), l.TransferTime(n); got != want {
				t.Errorf("%s Delay(uncontended, %d): shaper %v, link %v", l.Name, n, got, want)
			}
		}
	}
}

func TestParseLinkSpec(t *testing.T) {
	s, err := ParseLinkSpec("60ms:2.5e6")
	if err != nil {
		t.Fatal(err)
	}
	if s.propagation != 60*time.Millisecond || s.bandwidth != 2.5e6 {
		t.Fatalf("got prop=%v bw=%g", s.propagation, s.bandwidth)
	}
	if s, err := ParseLinkSpec(""); err != nil || s != nil {
		t.Fatalf("empty spec: got %v, %v; want nil, nil", s, err)
	}
	if spec := FormatLinkSpec(netsim.EdgeCloudCrossCountry()); spec == "" {
		t.Fatal("empty formatted spec")
	} else if rt, err := ParseLinkSpec(spec); err != nil || rt == nil {
		t.Fatalf("round trip %q: %v", spec, err)
	}
	for _, bad := range []string{"60ms", "x:1e6", "60ms:x", "-1ms:5", "60ms:25MB", "60ms:NaN", "60ms:+Inf"} {
		if _, err := ParseLinkSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

// A shaped path (the multi-process node's pipeline seam) injects the full
// modeled delay.
func TestShapedPathOverNull(t *testing.T) {
	clk := vclock.NewReal()
	p := NewShapedPath(NewShaper(20*time.Millisecond, 0), clk)
	t0 := clk.Now()
	p.Send(clk, 1000)
	if got := clk.Now() - t0; got < 18*time.Millisecond {
		t.Fatalf("shaped send took %v, want ≥ ~20ms", got)
	}
	if b, m := p.Traffic(); b != 1000 || m != 1 {
		t.Fatalf("traffic: %d bytes, %d messages", b, m)
	}
	p.SetDown(true)
	p.Send(clk, 1000)
	if b, m := p.Traffic(); b != 1000 || m != 1 {
		t.Fatalf("severed send counted as traffic: %d bytes, %d messages", b, m)
	}
	p.SetDown(false)
	if p.IsDown() {
		t.Fatal("path still down after heal")
	}
}
