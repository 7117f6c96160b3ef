//go:build race

package am

// raceEnabled: the race detector's instrumentation changes allocation
// counts, so the cost ledger skips itself.
const raceEnabled = true
