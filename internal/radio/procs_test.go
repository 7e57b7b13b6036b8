package radio

import (
	"runtime"
	"testing"
)

// ProcsVariants lists the GOMAXPROCS settings that the engine tests with
// goroutines around a run repeat their cases under: context and transport
// watchers, and concurrent runs. The engine has one drive mode, so the
// setting no longer picks an engine path, but it still changes how the
// runtime interleaves those goroutines with the run. Each variant is named
// after the drive mode the setting selected when the engine had two, which
// keeps the test IDs stable: "pump" at GOMAXPROCS=1, "barrier" at
// GOMAXPROCS=2. Both variants drive the coroutine pump.
var ProcsVariants = []struct {
	Name  string
	Procs int
}{
	{"barrier", 2},
	{"pump", 1},
}

// WithProcs sets GOMAXPROCS to n for the rest of t and restores the
// previous setting when t ends. Callers must not run in parallel.
func WithProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
