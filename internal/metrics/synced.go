package metrics

import "sync"

// Synced is a concurrent-safe registry for the serving layer. A simulated
// machine's registry is single-goroutine by design (see the package
// comment), but the serving layer's registry is written from many
// goroutines at once — HTTP handlers, queue workers, the cache — so it
// goes through this wrapper instead: one mutex over one Registry
// (DESIGN.md §12 measured the traffic: far too little to contend on it).
// Names follow the same dotted convention; metrics are created on first
// use, and a name must be used consistently as either a counter or a
// gauge.
type Synced struct {
	mu sync.Mutex
	r  *Registry
}

// NewSynced returns an empty concurrent-safe registry.
func NewSynced() *Synced {
	return &Synced{r: NewRegistry()}
}

// Add increases the named counter by d, creating it on first use.
func (s *Synced) Add(name string, d int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.r.Counter(name).Add(d)
}

// Inc increases the named counter by one, creating it on first use.
func (s *Synced) Inc(name string) { s.Add(name, 1) }

// Set records the named gauge's current value, creating it on first use.
func (s *Synced) Set(name string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.r.Gauge(name).Set(v)
}

// Max raises the named gauge to v if v is larger (high-water-mark use).
func (s *Synced) Max(name string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.r.Gauge(name).Max(v)
}

// Value returns the named metric's current value from a fresh snapshot
// (0 when the metric does not exist yet).
func (s *Synced) Value(name string) int64 {
	return s.Snapshot().Get(name)
}

// Snapshot captures the current value of every metric, like
// Registry.Snapshot but safe against concurrent writers: one
// point-in-time cut under the lock.
func (s *Synced) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Snapshot()
}

// ResetStats zeroes every metric, like Registry.ResetStats, under the
// lock, so no concurrent increment is half-reset.
func (s *Synced) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.r.ResetStats()
}

// With runs f with the registry under the lock, for operations the
// convenience methods don't cover (phase timers, bulk registration).
// f must not retain the registry or any metric handle past its return.
func (s *Synced) With(f func(r *Registry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.r)
}
