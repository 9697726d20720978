// Command predictbench reproduces the break-down evaluation of the
// enhanced perception module: Table III (MAE/MSE/RMSE of LSTM-MLP,
// ED-LSTM, GAS-LED and LST-GAT on the REAL substitute) and Table IV (their
// training convergence time and average inference time).
//
// Usage:
//
//	predictbench [-batch-envs N] [-scale quick|record|paper] [-epochs N] [-seed N] [-workers N] [-debug-addr :8080] [-progress]
//	predictbench ... [-trace-out dir] [-trace-sample 0.1]  # flight-record the run
package main

import (
	"flag"
	"log"
	"os"

	"head/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("predictbench: ")
	var (
		scaleName = flag.String("scale", "quick", "experiment scale: quick, record or paper")
		epochs    = flag.Int("epochs", 0, "override the number of training epochs")
		seed      = flag.Int64("seed", 0, "override the random seed")
		workers   = flag.Int("workers", 0, "max parallel workers (0 = all cores; results are identical for any value)")
		batchEnvs = flag.Int("batch-envs", 0, "batched inference width for the accuracy evaluation (<=1 = serial; results are identical for any value)")
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
	if *epochs > 0 {
		s.PredEpochs = *epochs
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

	rows, err := experiments.TableIIIIV(s)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.WriteString("Tables III & IV — Accuracy and Efficiency of State Predictors on REAL\n")
	experiments.PrintPredRows(os.Stdout, rows)
	if err := finishTrace(); err != nil {
		log.Fatal("trace: ", err)
	}
}
