//go:build race

package dist

func init() { raceEnabled = true }
