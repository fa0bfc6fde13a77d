//go:build !race

package mlmdio

// raceEnabled reports a -race build, where sync.Pool drops items at random.
const raceEnabled = false
