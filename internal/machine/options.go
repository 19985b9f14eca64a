package machine

// Option adjusts a Config at construction time. New applies options in
// order after copying the base configuration, so call sites compose
// knobs without poking struct fields:
//
//	m, err := machine.New(machine.PentiumPro(4),
//	    machine.WithParallel(machine.ParallelOn),
//	    machine.WithVictim(16, 2))
//
// The functions mirror the value-receiver With* methods on Config (which
// remain for building a Config ahead of construction); both routes
// produce identical configurations and therefore identical canonical
// cache keys.
type Option func(*Config)

// WithEngine selects the simulation engine.
func WithEngine(e Engine) Option { return func(c *Config) { c.Engine = e } }

// WithParallel selects the host-parallel simulation mode.
func WithParallel(mode Parallel) Option { return func(c *Config) { c.Parallel = mode } }

// WithProcs sets the processor count.
func WithProcs(p int) Option { return func(c *Config) { c.Procs = p } }

// WithVictim configures a victim buffer of the given capacity and hit
// latency (entries 0 disables it).
func WithVictim(entries int, latency int64) Option {
	return func(c *Config) { c.VictimEntries = entries; c.VictimLatency = latency }
}
