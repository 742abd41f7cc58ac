package simcore

// Sim is the driver interface shared by Engine and ParallelEngine: the
// minimal surface the model layer needs to execute a simulation to
// completion. Both engines guarantee bit-for-bit deterministic results
// for a given seed, independent of wall clock or GOMAXPROCS.
type Sim interface {
	// Run executes events until none remain or the simulation is stopped.
	Run() error
	// RunUntil executes events with time ≤ limit, then stops.
	RunUntil(limit Time) error
	// Stop ends the simulation after the current event completes.
	Stop()
}

var _ Sim = (*Engine)(nil)
