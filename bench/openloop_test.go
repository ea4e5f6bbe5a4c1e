package main

import (
	"testing"
	"time"
)

// A server that stalls must not get a lighter load: every slot is
// still issued, and the operations queued behind the stall report the
// wait, because latency counts from the due time.
func TestOpenLoopStallInflatesLatencyNotLoad(t *testing.T) {
	const (
		period = 2 * time.Millisecond
		slots  = 20
		stall  = 14 * time.Millisecond
	)
	var fromDue []time.Duration
	late := openLoop(time.Now(), period, slots*period, func(i int, due time.Time) {
		if i == 3 {
			time.Sleep(stall) // the fake server hangs on one request
		}
		fromDue = append(fromDue, time.Since(due))
	})
	if len(fromDue) != slots || len(late) != slots {
		t.Fatalf("issued %d operations (%d lateness samples), want %d: a stall must not shrink the load", len(fromDue), len(late), slots)
	}
	if fromDue[3] < stall {
		t.Errorf("stalled operation took %v from due, want >= %v", fromDue[3], stall)
	}
	// Slot 4 was due one period after slot 3 but could only start once
	// the stall ended: it inherits all but one period of it.
	if want := stall - period; fromDue[4] < want {
		t.Errorf("operation behind the stall took %v from due, want >= %v", fromDue[4], want)
	}
	if late[4] < float64(stall-period)/float64(time.Millisecond) {
		t.Errorf("generator lateness of slot 4 = %.3f ms, want the stall to show", late[4])
	}
	if last := fromDue[slots-1]; last > stall/2 {
		t.Errorf("the loop never caught up: last operation %v from due", last)
	}
}
