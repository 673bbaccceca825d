//go:build race

package classpack

func init() { raceEnabled = true }
