//go:build race

package wire_test

func init() { raceEnabled = true }
