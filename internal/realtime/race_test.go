//go:build race

package realtime

func init() { raceEnabled = true }
