// Command headtrain trains the two HEAD models — the LST-GAT perception
// model and the BP-DQN decision agent — and checkpoints them to disk, so
// later runs (or other tools) can reload the trained weights instead of
// retraining.
//
// Training mode also writes a run manifest (manifest.json: seed, scale,
// workers, config hash, wall-clock bounds, final metrics) and a metrics
// time series (metrics.jsonl, one registry snapshot per epoch/episode)
// next to the checkpoints, and can serve live Prometheus metrics and
// pprof profiles while it runs (-debug-addr).
//
// Usage:
//
//	headtrain -out dir [-scale quick|record|paper] [-train N] [-seed N] [-workers N] [-batch-envs N]  # train + save
//	headtrain -load dir [-episodes N] [-workers N] [-batch-envs N]                                  # load + evaluate
//	headtrain ... [-debug-addr :8080] [-progress]                                     # observe either mode
//	headtrain ... [-trace-out dir] [-trace-sample 0.1]                                # flight-record either mode
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"head/internal/experiments"
	"head/internal/head"
	"head/internal/obs"
	"head/internal/obs/quality"
	"head/internal/rl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("headtrain: ")
	var (
		out       = flag.String("out", "", "directory to save checkpoints into (training mode)")
		load      = flag.String("load", "", "directory to load checkpoints from (evaluation mode)")
		scaleName = flag.String("scale", "quick", "experiment scale: quick, record or paper")
		train     = flag.Int("train", 0, "override the number of training episodes")
		episodes  = flag.Int("episodes", 0, "override the number of test episodes")
		seed      = flag.Int64("seed", 0, "override the random seed")
		workers   = flag.Int("workers", 0, "max parallel workers (0 = all cores; results are identical for any value)")
		batchEnvs = flag.Int("batch-envs", 0, "lock-step batched execution width for evaluation and training (<=1 = serial; results are identical for any value)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/pprof/* and /debug/vars on this address (e.g. :8080; empty disables)")
		progress  = flag.Bool("progress", false, "print a live heartbeat line per episode/epoch to stderr")
		traceOut  = flag.String("trace-out", "", "directory to write trace.json (Chrome trace-event JSON) and decisions.jsonl into (empty disables tracing)")
		traceSmpl = flag.Float64("trace-sample", 1, "fraction of steps traced, deterministic per (lane, episode, step); 0 or 1 traces every step")
		qualOut   = flag.String("quality-out", "", "directory to (re)write quality_baseline.json into after evaluation (evaluation mode; empty disables)")
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
	if *seed != 0 {
		s.Seed = *seed
	}
	if *train > 0 {
		s.TrainEpisodes = *train
	}
	if *episodes > 0 {
		s.TestEpisodes = *episodes
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

	switch {
	case *out != "":
		if err := trainRun(s, *out, *scaleName); err != nil {
			log.Fatal(err)
		}
	case *load != "":
		if err := evaluate(s, *load, *scaleName, *qualOut); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("pass -out dir to train or -load dir to evaluate")
	}
	if err := finishTrace(); err != nil {
		log.Fatal("trace: ", err)
	}
}

func trainRun(s experiments.Scale, dir, scaleName string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	mf, err := os.Create(filepath.Join(dir, "metrics.jsonl"))
	if err != nil {
		return err
	}
	defer mf.Close()
	snap := obs.NewSnapshotWriter(mf)

	rng := rand.New(rand.NewSource(s.Seed))
	fmt.Println("training LST-GAT perception model...")
	predictor, err := experiments.TrainedPredictorObserved(s, rng, func(epoch int, loss float64) {
		snap.Snap(s.Metrics, map[string]any{"phase": "predict", "epoch": epoch, "loss": loss})
	})
	if err != nil {
		return err
	}
	if err := experiments.SaveModule(filepath.Join(dir, experiments.CkptLSTGAT), predictor); err != nil {
		return err
	}

	fmt.Printf("training BP-DQN decision agent (%d episodes)...\n", s.TrainEpisodes)
	env := head.NewEnv(s.EnvConfig(), predictor, rng)
	agent := rl.NewBPDQN(s.RLConfig(), env.Spec(), env.AMax(), s.RLHidden, rng)
	res := rl.TrainObserved(agent, env, s.TrainEpisodes, s.MaxSteps, rl.Instrumentation{
		Metrics:  s.Metrics,
		Progress: s.Progress,
		OnEpisode: func(st rl.EpisodeStats) {
			snap.Snap(s.Metrics, map[string]any{"phase": "rl", "episode": st.Episode, "reward": st.Reward})
		},
		Trace:     s.Trace.Lane("train"),
		BatchEnvs: s.BatchEnvs,
	})
	fmt.Printf("trained in %v\n", res.TCT.Round(1e9))
	if err := experiments.SaveModule(filepath.Join(dir, experiments.CkptBPDQN), agent); err != nil {
		return err
	}

	// Profile the trained policy's behavior over the evaluation episodes and
	// export the behavioral baseline next to the checkpoints, so headserve
	// -quality-baseline can detect online drift against it.
	fmt.Printf("profiling decision-quality baseline (%d episodes)...\n", s.TestEpisodes)
	rec := quality.NewRecorder("HEAD")
	experiments.EvaluateHEAD(s, predictor, agent, rec)
	qb, err := experiments.ExportQualityBaseline(s, dir, "headtrain", scaleName, rec)
	if err != nil {
		return err
	}
	fmt.Printf("baseline over %d decisions written to %s\n", qb.Steps, filepath.Join(dir, quality.BaselineFile))

	man := obs.Manifest{
		Tool:       "headtrain",
		Scale:      scaleName,
		Seed:       s.Seed,
		Workers:    s.Workers,
		ConfigHash: s.ConfigHash(),
		GoVersion:  runtime.Version(),
		Start:      start,
		End:        time.Now(),
		Final:      s.Metrics.Snapshot(),
	}
	if err := man.Write(dir); err != nil {
		return err
	}
	fmt.Println("checkpoints written to", dir)
	return nil
}

func evaluate(s experiments.Scale, dir, scaleName, qualityOut string) error {
	predictor, agent, err := experiments.LoadCheckpoint(s, dir)
	if err != nil {
		return err
	}
	// One pass feeds the metrics and, with -quality-out, the baseline. Each
	// test episode gets private replicas of the loaded models; the metrics
	// are identical for any -workers and -batch-envs value.
	var rec *quality.Recorder
	if qualityOut != "" {
		rec = quality.NewRecorder("HEAD")
	}
	m := experiments.EvaluateHEAD(s, predictor, agent, rec)
	fmt.Printf("HEAD over %d episodes: AvgDT-A %.1fs  AvgV-A %.2fm/s  AvgJ-A %.2f  Avg#-CA %.1f  MinTTC-A %.2fs  collisions %d\n",
		m.Episodes, m.AvgDTA, m.AvgVA, m.AvgJA, m.AvgCA, m.MinTTCA, m.Collisions)
	if qualityOut != "" {
		if err := os.MkdirAll(qualityOut, 0o755); err != nil {
			return err
		}
		qb, err := experiments.ExportQualityBaseline(s, qualityOut, "headtrain", scaleName, rec)
		if err != nil {
			return err
		}
		fmt.Printf("baseline over %d decisions written to %s\n", qb.Steps, filepath.Join(qualityOut, quality.BaselineFile))
	}
	return nil
}
