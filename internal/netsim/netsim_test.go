package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"croesus/internal/vclock"
)

func TestTransferTime(t *testing.T) {
	l := &Link{Propagation: 10 * time.Millisecond, Bandwidth: 1 << 20} // 1 MiB/s
	got := l.TransferTime(1 << 20)
	want := 10*time.Millisecond + time.Second
	if got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	l.Bandwidth = 0 // infinite
	if l.TransferTime(1<<30) != 10*time.Millisecond {
		t.Error("infinite bandwidth must cost only propagation")
	}
}

func TestSendAdvancesClockAndAccounts(t *testing.T) {
	s := vclock.NewSim()
	l := &Link{Propagation: 50 * time.Millisecond, Bandwidth: 10 << 20}
	s.Run(func() {
		l.Send(s, 5<<20)
	})
	want := 50*time.Millisecond + 500*time.Millisecond
	if s.Now() != want {
		t.Errorf("clock = %v, want %v", s.Now(), want)
	}
	b, msgs := l.Traffic()
	if b != 5<<20 || msgs != 1 {
		t.Errorf("Traffic = %d bytes, %d msgs", b, msgs)
	}
}

func TestCostUSD(t *testing.T) {
	l := &Link{}
	s := vclock.NewSim()
	s.Run(func() { l.Send(s, 1<<30) })
	if cost := l.CostUSD(0.09); math.Abs(cost-0.09) > 1e-9 {
		t.Errorf("CostUSD = %v, want 0.09", cost)
	}
}

func TestPresetOrdering(t *testing.T) {
	cross := EdgeCloudCrossCountry()
	same := EdgeCloudSameSite()
	n := 200 << 10
	if cross.TransferTime(n) <= same.TransferTime(n) {
		t.Error("cross-country link must be slower than same-site")
	}
	if ClientEdgeLink().TransferTime(n) >= cross.TransferTime(n) {
		t.Error("client-edge must be faster than cross-country")
	}
}

func TestPreprocessors(t *testing.T) {
	comp := DefaultCompression()
	n, cost := comp.Process(100 << 10)
	if n >= 100<<10 || n <= 0 {
		t.Errorf("compression output %d not shrunk", n)
	}
	if cost <= 0 {
		t.Error("compression must cost CPU time")
	}
	chain := Chain{DefaultCompression(), DefaultDiffComm()}
	n2, cost2 := chain.Process(100 << 10)
	if n2 >= n {
		t.Errorf("chain output %d not smaller than compression alone %d", n2, n)
	}
	if cost2 <= cost {
		t.Error("chain cost must exceed single stage")
	}
	if chain.Name() != "compression+difference" {
		t.Errorf("chain name = %q", chain.Name())
	}
	if (Chain{}).Name() != "identity" {
		t.Errorf("empty chain name = %q", Chain{}.Name())
	}
	if n3, c3 := (Identity{}).Process(42); n3 != 42 || c3 != 0 {
		t.Error("identity must be a no-op")
	}
}

// Property: transfer time is monotone in payload size.
func TestTransferMonotoneProperty(t *testing.T) {
	l := EdgeCloudCrossCountry()
	f := func(a, b uint32) bool {
		x, y := int(a%(64<<20)), int(b%(64<<20))
		if x > y {
			x, y = y, x
		}
		return l.TransferTime(x) <= l.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: chain output size is the product of ratios (within rounding).
func TestChainRatioProperty(t *testing.T) {
	f := func(raw uint32) bool {
		n := int(raw%(8<<20)) + 1024
		chain := Chain{Compression{Ratio: 0.5}, DiffComm{Ratio: 0.5}}
		out, _ := chain.Process(n)
		want := int(float64(int(float64(n)*0.5)) * 0.5)
		return out == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
