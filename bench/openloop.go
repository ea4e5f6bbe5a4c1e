package main

import "time"

// openLoop issues op(i, due) for every slot due_i = start + i*period
// that falls before start+dur, whatever the system does: a slow op
// makes later ops late, never fewer, so a stalled server inflates the
// latencies (which callers measure from due, not from the actual send)
// instead of quietly shrinking the load. It returns how late each op
// started, the generator's own honesty figure.
func openLoop(start time.Time, period, dur time.Duration, op func(i int, due time.Time)) (late samples) {
	for i := 0; ; i++ {
		offset := time.Duration(i) * period
		if offset >= dur {
			return late
		}
		due := start.Add(offset)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late.add(max(0, time.Since(due)))
		op(i, due)
	}
}
