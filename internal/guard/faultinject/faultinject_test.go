package faultinject

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestArmFiresBudget(t *testing.T) {
	defer Reset()
	Arm("x", 2)
	if !Fires("x") || !Fires("x") {
		t.Fatal("armed site did not fire its budget")
	}
	if Fires("x") {
		t.Fatal("site fired past its budget")
	}
	if Fires("never-armed") {
		t.Fatal("unarmed site fired")
	}
}

// TestArmDuringFires arms sites while other goroutines consume one: both
// sides touch the site table under mu, so -race reports nothing and every
// firing is counted once.
func TestArmDuringFires(t *testing.T) {
	defer Reset()
	const workers, calls = 4, 5000
	Arm("y", workers*calls)
	var wg sync.WaitGroup
	var fired atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if Fires("y") {
					fired.Add(1)
				}
			}
		}()
	}
	for i := 0; i < calls; i++ {
		Arm("z", i+1)
	}
	wg.Wait()
	if n := fired.Load(); n != workers*calls {
		t.Fatalf("%d of %d armed firings consumed", n, workers*calls)
	}
	if Fires("y") {
		t.Fatal("site fired past its budget")
	}
}

func TestArmDelayBudget(t *testing.T) {
	defer Reset()
	if _, ok := FireDelay("lat"); ok {
		t.Fatal("unarmed delay site fired")
	}
	ArmDelay("lat", 2, 5*time.Millisecond)
	for i := 0; i < 2; i++ {
		d, ok := FireDelay("lat")
		if !ok || d != 5*time.Millisecond {
			t.Fatalf("firing %d: got (%v, %v), want (5ms, true)", i, d, ok)
		}
	}
	if _, ok := FireDelay("lat"); ok {
		t.Fatal("delay site fired past its budget")
	}
	// Delay sites and plain sites do not cross-trigger.
	ArmDelay("lat", 1, time.Millisecond)
	if Fires("lat") {
		t.Fatal("Fires consumed a delay-armed site")
	}
	Reset()
	Arm("lat", 1)
	if _, ok := FireDelay("lat"); ok {
		t.Fatal("FireDelay consumed a plain-armed site")
	}
}

// TestChaosDeterministicSequence pins that a chaos run is a pure function of
// its seed: two estimators with the same seed produce identical mode
// sequences, and different seeds diverge.
func TestChaosDeterministicSequence(t *testing.T) {
	a := &ChaosEstimator{Seed: 7, ValidEvery: 4}
	b := &ChaosEstimator{Seed: 7, ValidEvery: 4}
	c := &ChaosEstimator{Seed: 8, ValidEvery: 4}
	same, diff := true, true
	for i := uint64(0); i < 256; i++ {
		if a.Mode(i) != b.Mode(i) {
			same = false
		}
		if a.Mode(i) != c.Mode(i) {
			diff = false
		}
	}
	if !same {
		t.Fatal("same seed produced different mode sequences")
	}
	if diff {
		t.Fatal("different seeds produced identical mode sequences")
	}
	for i := uint64(0); i < 256; i += 4 {
		if a.Mode(i) != ChaosValid {
			t.Fatalf("call %d: ValidEvery=4 override not applied", i)
		}
	}
}

func TestChaosEstimatorModes(t *testing.T) {
	c := &ChaosEstimator{Seed: 3, Value: 0.5, Delay: time.Millisecond}
	sawPanic, sawNaN, sawErr, sawValid := false, false, false, false
	for i := 0; i < 64; i++ {
		func() {
			defer func() {
				if recover() != nil {
					sawPanic = true
				}
			}()
			v, err := c.Estimate(nil)
			switch {
			case err != nil:
				sawErr = true
			case math.IsNaN(v):
				sawNaN = true
			case v == 0.5:
				sawValid = true
			}
		}()
	}
	if !sawPanic || !sawNaN || !sawErr || !sawValid {
		t.Fatalf("64 chaos calls missed a mode: panic=%v nan=%v err=%v valid=%v",
			sawPanic, sawNaN, sawErr, sawValid)
	}
	if got := c.Calls(); got != 64 {
		t.Fatalf("Calls() = %d, want 64", got)
	}
}
