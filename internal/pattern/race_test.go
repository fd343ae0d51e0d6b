//go:build race

package pattern

func init() { raceEnabled = true }
