// Command headsim reproduces the end-to-end evaluation of the HEAD paper:
// Table I (baselines IDM-LC, ACC-LC, DRL-SC, TP-BTS vs HEAD) and, with
// -ablation, Table II (the HEAD-variant ablation study). With -quality-out
// it additionally profiles every decision the full HEAD policy makes
// during evaluation and writes the behavioral baseline
// (quality_baseline.json) headserve's drift detection consumes.
//
// Usage:
//
//	headsim [-batch-envs N] [-scale quick|record|paper] [-ablation] [-episodes N] [-train N] [-seed N] [-workers N] [-debug-addr :8080] [-progress] [-trace-out dir] [-trace-sample 0.1] [-quality-out dir]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"head/internal/experiments"
	"head/internal/obs/quality"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("headsim: ")
	var (
		scaleName = flag.String("scale", "quick", "experiment scale: quick, record or paper")
		ablation  = flag.Bool("ablation", false, "run the Table II ablation study instead of Table I")
		episodes  = flag.Int("episodes", 0, "override the number of test episodes")
		train     = flag.Int("train", 0, "override the number of training episodes")
		seed      = flag.Int64("seed", 0, "override the random seed")
		workers   = flag.Int("workers", 0, "max parallel workers (0 = all cores; results are identical for any value)")
		batchEnvs = flag.Int("batch-envs", 0, "lock-step batched execution width for evaluation and training (<=1 = serial; results are identical for any value)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/pprof/* and /debug/vars on this address (e.g. :8080; empty disables)")
		progress  = flag.Bool("progress", false, "print a live heartbeat line per episode/epoch to stderr")
		traceOut  = flag.String("trace-out", "", "directory to write trace.json (Chrome trace-event JSON) and decisions.jsonl into (empty disables tracing)")
		traceSmpl = flag.Float64("trace-sample", 1, "fraction of steps traced, deterministic per (lane, episode, step); 0 or 1 traces every step")
		qualOut   = flag.String("quality-out", "", "directory to write the HEAD decision-quality baseline (quality_baseline.json) into after the table run (empty disables)")
	)
	flag.Parse()

	s, err := scaleByName(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	if *episodes > 0 {
		s.TestEpisodes = *episodes
	}
	if *train > 0 {
		s.TrainEpisodes = *train
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
	defer func() {
		if err := finishTrace(); err != nil {
			log.Print("trace: ", err)
		}
	}()

	if *qualOut != "" {
		// Profile the full HEAD policy's evaluation decisions; the other
		// methods and variants evaluate unprofiled.
		s.Quality = quality.NewRecorder("HEAD")
	}

	if *ablation {
		rows, err := experiments.TableII(s)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintEndToEnd(os.Stdout, "Table II — Ablation Study of HEAD-Variants and HEAD", rows)
	} else {
		rows, err := experiments.TableI(s)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintEndToEnd(os.Stdout, "Table I — End-to-End Performance of Baselines and HEAD", rows)
	}

	if *qualOut != "" {
		if err := os.MkdirAll(*qualOut, 0o755); err != nil {
			log.Fatal(err)
		}
		b := s.Quality.Baseline(quality.Baseline{
			Tool: "headsim", Scale: *scaleName, Seed: s.Seed,
			ConfigHash: s.ConfigHash(), Episodes: s.TestEpisodes,
		})
		if b.Steps == 0 {
			log.Fatal("quality baseline: no HEAD decisions profiled")
		}
		path := filepath.Join(*qualOut, quality.BaselineFile)
		if err := b.Write(path); err != nil {
			log.Fatal(err)
		}
		log.Printf("quality baseline over %d decisions written to %s", b.Steps, path)
	}
}

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "quick":
		return experiments.Quick(), nil
	case "record":
		return experiments.Record(), nil
	case "paper":
		return experiments.Paper(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (want quick, record or paper)", name)
	}
}
