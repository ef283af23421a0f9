// Command hefdoctor verifies — and with -repair, repairs — the artifacts
// the pipeline writes to disk: durable memo stores (-memo-dir directories
// of sharded record logs), sweep checkpoints (-checkpoint files and their
// .bak rotations), machine-readable run reports (the -json output and the
// BENCH_*.json snapshots), JSON-line streams (go test -json captures), and
// the services' record files (hefd's jobs.log and admission.state, the
// hefsweep coordinator's sweep.log).
//
// Each argument is diagnosed by content (the service files by their fixed
// names first): a directory is treated as a memo store and every shard log
// inside is scanned; a file is classified as a record log, a checkpoint, a
// run report, or a JSON-line stream, and validated accordingly.
//
// -repair applies the same salvage the runtime layers apply at open:
// record logs are truncated to their longest valid prefix with the bad
// suffix preserved in a .quarantine sidecar, torn checkpoints are restored
// from their intact .bak generation, and torn JSON-line streams are trimmed
// to the last intact line. Undecodable single-document JSON (a run report
// with no rotation) is unrepairable; regenerate it with the producing tool.
//
// Usage:
//
//	hefdoctor memo-dir/                     # verify a durable memo store
//	hefdoctor -repair memo-dir/             # quarantine + truncate bad tails
//	hefdoctor sweep.ckpt report.json BENCH_1.json
//
// Exit status: 0 when every artifact is healthy or was repaired, 1 when
// corruption remains (or a path is unreachable), 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"hef/internal/doctor"
	"hef/internal/store"
)

func main() {
	repair := flag.Bool("repair", false, "repair damaged artifacts in place (quarantine+truncate record logs, restore checkpoints from .bak, trim torn JSON-line streams)")
	quiet := flag.Bool("q", false, "print findings for damaged or repaired artifacts only")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprint(os.Stderr, "hefdoctor: no artifacts given\n\n")
		flag.Usage()
		os.Exit(2)
	}

	exit := 0
	for _, path := range flag.Args() {
		rep, err := doctor.Diagnose(store.OS, path, *repair)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hefdoctor: %v\n", err)
			exit = 1
			continue
		}
		for _, f := range rep.Findings {
			if *quiet && f.Status == doctor.StatusOK {
				continue
			}
			fmt.Printf("%-9s %-11s %s: %s\n", f.Status, f.Kind, f.Path, f.Detail)
		}
		if rep.Corrupt() {
			exit = 1
		}
	}
	os.Exit(exit)
}
