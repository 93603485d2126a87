// Package faultinject is a deterministic fault-injection harness for
// resilience tests. Production code places named sites on its failure-prone
// paths (`if faultinject.Fires("core.train.nanloss") { … }`); tests arm a
// site for an exact number of firings and the code misbehaves exactly that
// often, with zero configuration races and no randomness. When nothing is
// armed the fast path is a single atomic load, so shipping the sites in
// production builds costs nothing measurable.
//
// The package also provides ready-made faulty estimators (panicking,
// NaN-returning, erroring, slow, valid) used to drive the guard cascade in
// tests and demos.
package faultinject

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"iam/internal/query"
)

var (
	armed int32 // non-zero while any site is armed (fast-path gate)
	mu    sync.Mutex
	sites map[string]int // guarded by mu — remaining firings per site
)

// Arm makes site fire `times` times (≤ 0 disarms it). Subsequent Fires calls
// consume one firing each until the budget is exhausted.
func Arm(site string, times int) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = map[string]int{}
	}
	if times <= 0 {
		delete(sites, site)
	} else {
		sites[site] = times
	}
	atomic.StoreInt32(&armed, int32(len(sites)))
}

// Reset disarms every site. Tests should defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	atomic.StoreInt32(&armed, 0)
	delays = nil
	atomic.StoreInt32(&delayArmed, 0)
}

// Fires reports whether site should misbehave now, consuming one firing.
// With nothing armed it is a single atomic load.
func Fires(site string) bool {
	if atomic.LoadInt32(&armed) == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	n, ok := sites[site]
	if !ok {
		return false
	}
	if n <= 1 {
		delete(sites, site)
	} else {
		sites[site] = n - 1
	}
	atomic.StoreInt32(&armed, int32(len(sites)))
	return true
}

// --- Faulty estimators for cascade tests ---

// PanicEstimator panics on every call after Healthy successful calls.
type PanicEstimator struct {
	Label   string
	Value   float64 // returned while healthy
	Healthy int
	calls   int
}

func (p *PanicEstimator) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "panicky"
}

func (p *PanicEstimator) Estimate(q *query.Query) (float64, error) {
	p.calls++
	if p.calls > p.Healthy {
		// This estimator exists to inject panics so guard recovery paths can
		// be tested.
		panic(fmt.Sprintf("%s: injected panic on call %d", p.Name(), p.calls))
	}
	return p.Value, nil
}

// BadValueEstimator returns a fixed invalid estimate (NaN, Inf, or
// out-of-range) without erroring — the silent-garbage failure mode.
type BadValueEstimator struct {
	Label string
	Value float64
}

func (b *BadValueEstimator) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "badvalue"
}

func (b *BadValueEstimator) Estimate(q *query.Query) (float64, error) { return b.Value, nil }

// ErrEstimator fails every call with an explicit error.
type ErrEstimator struct{ Label string }

func (e *ErrEstimator) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "erroring"
}

func (e *ErrEstimator) Estimate(q *query.Query) (float64, error) {
	return 0, fmt.Errorf("%s: injected failure", e.Name())
}

// SlowEstimator sleeps before answering — drives per-query timeouts.
type SlowEstimator struct {
	Label string
	Delay time.Duration
	Value float64
}

func (s *SlowEstimator) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "slow"
}

func (s *SlowEstimator) Estimate(q *query.Query) (float64, error) {
	time.Sleep(s.Delay)
	return s.Value, nil
}

// ConstEstimator always succeeds with a fixed valid selectivity — the
// terminal fallback in tests.
type ConstEstimator struct {
	Label string
	Value float64
}

func (c *ConstEstimator) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "const"
}

func (c *ConstEstimator) Estimate(q *query.Query) (float64, error) { return c.Value, nil }

// --- Latency payloads ---

// ArmDelay arms site with a latency payload: the next `times` FireDelay
// calls report the delay, which the instrumented code is expected to sleep.
// Delays and plain firings share the site namespace but not state — a site
// armed with Arm never reports a delay and vice versa.
func ArmDelay(site string, times int, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	if delays == nil {
		delays = map[string]delayBudget{}
	}
	if times <= 0 || d <= 0 {
		delete(delays, site)
	} else {
		delays[site] = delayBudget{remaining: times, delay: d}
	}
	atomic.StoreInt32(&delayArmed, int32(len(delays)))
}

type delayBudget struct {
	remaining int
	delay     time.Duration
}

var (
	delayArmed int32                  // non-zero while any delay site is armed
	delays     map[string]delayBudget // guarded by mu — latency payloads per site
)

// FireDelay reports the latency payload site should inject now (consuming
// one firing), or (0, false). With nothing armed it is a single atomic load.
func FireDelay(site string) (time.Duration, bool) {
	if atomic.LoadInt32(&delayArmed) == 0 {
		return 0, false
	}
	mu.Lock()
	defer mu.Unlock()
	b, ok := delays[site]
	if !ok {
		return 0, false
	}
	if b.remaining <= 1 {
		delete(delays, site)
	} else {
		b.remaining--
		delays[site] = b
	}
	atomic.StoreInt32(&delayArmed, int32(len(delays)))
	return b.delay, true
}

// --- Chaos estimator ---

// ChaosMode selects one failure behavior of a ChaosEstimator call.
type ChaosMode int

const (
	// ChaosValid answers with a valid selectivity.
	ChaosValid ChaosMode = iota
	// ChaosPanic panics mid-call.
	ChaosPanic
	// ChaosNaN returns NaN without erroring.
	ChaosNaN
	// ChaosError returns an explicit error.
	ChaosError
	// ChaosSlow sleeps Delay before answering validly.
	ChaosSlow
	chaosModes // number of modes
)

// ChaosEstimator is a deterministic storm of every failure mode at once:
// call i misbehaves according to a splitmix64 stream over (Seed, i), so a
// chaos run is exactly reproducible from its seed yet looks adversarially
// random to the system under test. It implements estimator.BatchEstimator;
// batch calls draw one mode per call (not per query), mirroring a model
// replica failing as a unit. The zero value is usable; concurrency-safe.
type ChaosEstimator struct {
	Label string
	Seed  uint64
	// Value is the selectivity returned on valid calls.
	Value float64
	// Delay is the latency payload of ChaosSlow calls.
	Delay time.Duration
	// ValidEvery forces every ValidEvery-th call valid so cascades always
	// make progress; 0 disables the override.
	ValidEvery int
	calls      atomic.Uint64
}

func (c *ChaosEstimator) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "chaos"
}

// Mode returns the failure mode of call i — exported so tests can predict
// the exact fault sequence for a given seed.
func (c *ChaosEstimator) Mode(i uint64) ChaosMode {
	if c.ValidEvery > 0 && i%uint64(c.ValidEvery) == 0 {
		return ChaosValid
	}
	// splitmix64 finalizer over the (seed, call) pair.
	z := c.Seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return ChaosMode(z % uint64(chaosModes))
}

func (c *ChaosEstimator) act() (float64, error) {
	i := c.calls.Add(1) - 1
	switch c.Mode(i) {
	case ChaosPanic:
		// This estimator exists to inject panics so guard recovery paths can
		// be tested.
		panic(fmt.Sprintf("%s: injected chaos panic on call %d", c.Name(), i))
	case ChaosNaN:
		return math.NaN(), nil
	case ChaosError:
		return 0, fmt.Errorf("%s: injected chaos error on call %d", c.Name(), i)
	case ChaosSlow:
		time.Sleep(c.Delay)
	}
	return c.Value, nil
}

func (c *ChaosEstimator) Estimate(q *query.Query) (float64, error) { return c.act() }

// EstimateBatch fails or succeeds as a unit: one mode draw covers the batch.
func (c *ChaosEstimator) EstimateBatch(qs []*query.Query) ([]float64, error) {
	v, err := c.act()
	if err != nil {
		return nil, err
	}
	sels := make([]float64, len(qs))
	for i := range sels {
		sels[i] = v
	}
	return sels, nil
}

// Calls reports how many Estimate/EstimateBatch calls have been made.
func (c *ChaosEstimator) Calls() uint64 { return c.calls.Load() }
