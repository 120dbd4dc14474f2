package qp

import (
	"runtime"
	"strings"
)

// profileAllocs profiles every allocation until stop is called and
// returns a tally of the bytes and objects allocated since by stacks
// through each function of path, outermost first (as the runtime names
// them). Allocations off path, the tallies' own and other goroutines'
// never count, so a budget measured with it counts its own work. That
// work has to run on the calling goroutine (one worker): a goroutine it
// starts has a stack of its own, which path does not reach. Test files
// are not shared between packages, so the core, detail, legalize and qp
// tests each keep this file.
func profileAllocs(path ...string) (tally func() (bytes, objects int64), stop func()) {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	var recs []runtime.MemProfileRecord
	var b0, o0 int64
	tally = func() (bytes, objects int64) {
		runtime.GC() // publishes the profile up to here
		n, ok := runtime.MemProfile(recs, true)
		for ; !ok; n, ok = runtime.MemProfile(recs, true) {
			recs = make([]runtime.MemProfileRecord, n+64)
		}
		for _, r := range recs[:n] {
			want := len(path) - 1 // frames run innermost first
			for fs, more := runtime.CallersFrames(r.Stack()), true; more && want >= 0; {
				var fr runtime.Frame
				if fr, more = fs.Next(); strings.Contains(fr.Function, ".profileAllocs.func") {
					break // a tally's own buffer
				} else if fr.Function == path[want] {
					want--
				}
			}
			if want < 0 {
				bytes, objects = bytes+r.AllocBytes, objects+r.AllocObjects
			}
		}
		return bytes - b0, objects - o0
	}
	b0, o0 = tally()
	return tally, func() { runtime.MemProfileRate = rate }
}
