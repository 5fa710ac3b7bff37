//go:build race

package cluster

// raceEnabled reports a race-detector build, whose sync.Pool drops items
// at random: allocation pins do not hold under it.
const raceEnabled = true
