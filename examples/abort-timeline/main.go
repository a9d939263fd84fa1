// Abort-timeline: attach the flight recorder to a labyrinth run under
// RTM and print the transaction events of every thread merged by cycle,
// making the paper's §IV narrative directly visible — every routing
// transaction's whole-grid copy blows the L1-bounded write set, the
// hardware retries burn work, and after MAX_RETRIES the thread
// serialises through the fallback lock, aborting everyone else ("lock
// aborts").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

func main() {
	events := flag.Int("n", 60, "timeline events to print")
	threads := flag.Int("threads", 2, "simulated threads")
	flag.Parse()

	rec := obs.NewRecorder("labyrinth", 0)
	res, err := stamp.Run(stamp.NewLabyrinth(stamp.Full), tm.HTM, *threads, 42,
		func(sys *tm.System) { sys.SetRecorder(rec) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "validation failed:", err)
		os.Exit(1)
	}

	fmt.Printf("labyrinth under RTM, %d threads: %d starts, %d aborts (%.0f%%), %d fallbacks\n",
		*threads, res.Starts, res.Aborts, 100*res.AbortRate, res.Fallbacks)
	fmt.Printf("abort mix: %d write-capacity, %d conflict/read-capacity, %d lock, %d misc3, %d misc5\n\n",
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
	if len(all) > *events {
		all = all[:*events]
	}

	fmt.Printf("first %d events:\n", len(all))
	for _, e := range all {
		site := rec.SiteName(e.ev.Site)
		if site == "" {
			site = "-"
		}
		if e.ev.Kind == obs.KTxAbort {
			fmt.Printf("%12d t%d %-8s %-12s %s\n", e.ev.Cycle, e.tid, e.ev.Kind, site, e.ev.Cause)
		} else {
			fmt.Printf("%12d t%d %-8s %s\n", e.ev.Cycle, e.tid, e.ev.Kind, site)
		}
	}
	fmt.Println("\nNote the begin -> write-capacity abort loops on the 'route' site followed")
	fmt.Println("by a fallback: that is Fig. 12's labyrinth column and why it cannot scale on RTM.")
}
