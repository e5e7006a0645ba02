//go:build race

package scenario

func init() { raceEnabled = true }
