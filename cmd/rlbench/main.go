// Command rlbench reproduces the break-down evaluation of the maneuver
// decision module: Table V (MinR/MaxR/AvgR of P-QP, P-DDPG, P-DQN and
// BP-DQN in the simulated environment) and Table VI (their training
// convergence time and average inference time).
//
// Usage:
//
//	rlbench [-batch-envs N] [-scale quick|record|paper] [-train N] [-episodes N] [-seed N] [-workers N] [-debug-addr :8080] [-progress]
//	rlbench ... [-trace-out dir] [-trace-sample 0.1]  # flight-record the run
package main

import (
	"flag"
	"log"
	"os"

	"head/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rlbench: ")
	var (
		scaleName = flag.String("scale", "quick", "experiment scale: quick, record or paper")
		train     = flag.Int("train", 0, "override the number of training episodes")
		episodes  = flag.Int("episodes", 0, "override the number of test episodes")
		seed      = flag.Int64("seed", 0, "override the random seed")
		workers   = flag.Int("workers", 0, "max parallel workers (0 = all cores; results are identical for any value)")
		batchEnvs = flag.Int("batch-envs", 0, "enable the agents' out-of-band batch mechanisms at this width (<=1 = serial; results are identical for any value)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/pprof/* and /debug/vars on this address (e.g. :8080; empty disables)")
		progress  = flag.Bool("progress", false, "print a live heartbeat line per episode/epoch to stderr")
		traceOut  = flag.String("trace-out", "", "directory to write trace.json (Chrome trace-event JSON) and decisions.jsonl into (empty disables tracing)")
		traceSmpl = flag.Float64("trace-sample", 1, "fraction of steps traced, deterministic per (lane, episode, step); 0 or 1 traces every step")
	)
	flag.Parse()

	var s experiments.Scale
	switch *scaleName {
	case "quick":
		s = experiments.Quick()
	case "record":
		s = experiments.Record()
	case "paper":
		s = experiments.Paper()
	default:
		log.Fatalf("unknown scale %q (want quick, record or paper)", *scaleName)
	}
	if *train > 0 {
		s.TrainEpisodes = *train
	}
	if *episodes > 0 {
		s.TestEpisodes = *episodes
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	s.Workers = *workers
	s.BatchEnvs = *batchEnvs
	srv, finishTrace, err := s.ObserveDefault(*progress, *debugAddr, *traceOut, *traceSmpl)
	if err != nil {
		log.Fatal(err)
	}
	if srv != nil {
		defer srv.Close()
		log.Printf("debug server on http://%s (/metrics, /debug/pprof/, /debug/vars, /debug/trace)", srv.Addr())
	}

	rows, err := experiments.TableVVI(s)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.WriteString("Tables V & VI — Effectiveness and Efficiency of PAMDP Solvers in the Simulated Environment\n")
	experiments.PrintRLRows(os.Stdout, rows)
	if err := finishTrace(); err != nil {
		log.Fatal("trace: ", err)
	}
}
