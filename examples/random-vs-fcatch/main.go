// FCatch versus the state of practice (Section 8.3): on the same workload,
// FCatch analyzes ONE pair of correct runs and predicts the planted TOF
// bugs; hundreds of random fault-injection runs mostly land harmlessly —
// and the one hang random injection does find is a bug FCatch provably
// cannot see (its hazardous write happens outside any traced handler).
//
//	go run ./examples/random-vs-fcatch [-runs 200]
package main

import (
	"flag"
	"fmt"
	"log"

	"fcatch"
)

func main() {
	runs := flag.Int("runs", 200, "random-injection run count")
	flag.Parse()

	w := fcatch.MustWorkload("MR1")

	fmt.Println("== FCatch: one fault-free run + one correct faulty run ==")
	res, err := fcatch.Detect(w, fcatch.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	confirmed := 0
	for _, out := range fcatch.Trigger(w, res) {
		if out.Class == fcatch.TrueBug {
			confirmed++
			fmt.Printf("  true bug: %s\n", out.Report)
		}
	}
	fmt.Printf("  -> %d reports, %d confirmed true bugs\n\n", len(res.Reports), confirmed)

	fmt.Printf("== Random crash injection: %d runs ==\n", *runs)
	rnd, err := fcatch.Campaign(w, fcatch.CampaignConfig{Strategy: fcatch.StrategyRandom, Seed: 1, Budget: *runs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  -> %d/%d runs failed, %d distinct failure signature(s):\n",
		rnd.FailureRuns, rnd.Runs, rnd.UniqueFailures())
	for _, sig := range rnd.Signatures() {
		fmt.Printf("     %3dx %s\n", rnd.Failures[sig], sig)
	}
	fmt.Println("\nThe dominant random-injection signature (the AM waiting forever for a")
	fmt.Println("finished attempt's answer) is FCatch's known false negative: the flag")
	fmt.Println("write lives on a plain thread, invisible to selective tracing (§8.3).")
}
