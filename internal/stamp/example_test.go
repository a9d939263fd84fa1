package stamp_test

import (
	"fmt"
	"sort"

	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// Example_abortTimeline attaches the flight recorder to a labyrinth run
// under RTM and prints the transaction events of both threads merged by
// cycle. It shows the paper's §IV narrative: every routing transaction
// copies the whole grid and overflows the L1-bounded write set, the
// hardware retries burn work, and after MAX_RETRIES the thread
// serialises through the fallback lock, aborting the other thread. That
// is Fig. 12's labyrinth column and why it cannot scale on RTM.
//
// The run is at stamp.Full: at Test and Small scale the grid copy fits
// the write set and the run has no write-capacity aborts.
func Example_abortTimeline() {
	const threads, events = 2, 40
	rec := obs.NewRecorder("labyrinth", 0)
	res, err := stamp.Run(stamp.NewLabyrinth(stamp.Full), tm.HTM, threads, 42,
		func(sys *tm.System) { sys.SetRecorder(rec) })
	if err != nil {
		fmt.Println("validation failed:", err)
		return
	}

	fmt.Printf("labyrinth under RTM, %d threads: %d starts, %d aborts (%.0f%%), %d fallbacks\n",
		threads, res.Starts, res.Aborts, 100*res.AbortRate, res.Fallbacks)
	fmt.Printf("abort mix: %d write-capacity, %d conflict/read-capacity, %d lock, %d misc3, %d misc5\n",
		res.WriteCapacity, res.ConflictOrReadCap, res.Lock, res.Misc3, res.Misc5)

	// Merge the thread tracks by cycle; equal cycles keep thread order,
	// then each thread's emission order.
	type entry struct {
		tid int
		ev  obs.Event
	}
	var all []entry
	for tid := 0; tid < rec.Threads(); tid++ {
		for _, ev := range rec.ThreadEvents(tid) {
			all = append(all, entry{tid, ev})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ev.Cycle < all[j].ev.Cycle })

	for _, e := range all[:events] {
		if e.ev.Kind == obs.KTxAbort {
			fmt.Printf("%9d t%d %-8s %-6s %s\n", e.ev.Cycle, e.tid, e.ev.Kind, rec.SiteName(e.ev.Site), e.ev.Cause)
		} else {
			fmt.Printf("%9d t%d %-8s %s\n", e.ev.Cycle, e.tid, e.ev.Kind, rec.SiteName(e.ev.Site))
		}
	}
	// Output:
	// labyrinth under RTM, 2 threads: 434 starts, 384 aborts (88%), 48 fallbacks
	// abort mix: 327 write-capacity, 0 conflict/read-capacity, 47 lock, 10 misc3, 0 misc5
	//    238628 t0 begin    grab
	//    238628 t1 begin    grab
	//    238835 t1 commit   grab
	//    238835 t1 begin    route
	//    239019 t0 commit   grab
	//    239019 t0 begin    route
	//    240584 t1 abort    route  page-fault
	//    240584 t1 begin    route
	//    240710 t0 abort    route  page-fault
	//    240710 t0 begin    route
	//    260825 t0 abort    route  page-fault
	//    260825 t0 begin    route
	//    264411 t1 abort    route  page-fault
	//    264411 t1 begin    route
	//    287084 t0 abort    route  page-fault
	//    287084 t0 begin    route
	//    294382 t1 abort    route  page-fault
	//    294382 t1 begin    route
	//    319487 t0 abort    route  page-fault
	//    319487 t0 begin    route
	//    330497 t1 abort    route  page-fault
	//    330497 t1 begin    route
	//    358034 t0 abort    route  page-fault
	//    358034 t0 begin    route
	//    372756 t1 abort    route  page-fault
	//    372756 t1 begin    route
	//    383045 t0 abort    route  write-capacity
	//    383045 t0 begin    route
	//    397767 t1 abort    route  write-capacity
	//    397767 t1 begin    route
	//    407872 t0 abort    route  write-capacity
	//    407872 t0 begin    route
	//    422594 t1 abort    route  write-capacity
	//    422594 t1 begin    route
	//    432699 t0 abort    route  write-capacity
	//    432699 t0 fallback route
	//    432749 t0 begin    route
	//    432909 t1 abort    route  conflict
	//    743129 t0 commit   route
	//    743129 t0 begin    grab
}
