//go:build race

package live

func init() { raceEnabled = true }
