//go:build race

package rep

func init() { raceEnabled = true }
