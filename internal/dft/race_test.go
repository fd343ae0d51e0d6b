//go:build race

package dft

func init() { raceEnabled = true }
