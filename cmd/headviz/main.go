// Command headviz drives one episode with a chosen controller and renders
// it: either as an ASCII strip animation of the road around the autonomous
// vehicle, or as a CSV/JSONL trace export for offline analysis.
//
// Usage:
//
//	headviz [-controller idm|acc|tpbts|head] [-frames N] [-every N]
//	        [-csv file] [-jsonl file] [-seed N]
//	headviz -replay trace.jsonl   # summarize a previously exported trace
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"head/internal/experiments"
	"head/internal/head"
	"head/internal/obs"
	"head/internal/policy"
	"head/internal/rl"
	"head/internal/trace"
	"head/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("headviz: ")
	var (
		controller = flag.String("controller", "idm", "controller: idm, acc, tpbts, or head (trains a small agent first)")
		frames     = flag.Int("frames", 12, "number of rendered frames")
		every      = flag.Int("every", 5, "render every Nth step")
		csvPath    = flag.String("csv", "", "write the full trace as CSV to this file")
		jsonlPath  = flag.String("jsonl", "", "write the full trace as JSON Lines to this file")
		seed       = flag.Int64("seed", 7, "random seed")
		replay     = flag.String("replay", "", "summarize a JSONL trace exported earlier with -jsonl instead of driving an episode")
	)
	flag.Parse()

	if *replay != "" {
		if err := replayTrace(*replay); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 800
	cfg.Traffic.Density = 120
	cfg.MaxSteps = 240
	env := head.NewEnv(cfg, nil, rand.New(rand.NewSource(*seed)))

	ctrl, err := buildController(*controller, cfg, *seed)
	if err != nil {
		log.Fatal(err)
	}

	rec := trace.NewRecorder()
	env.Reset()
	ctrl.Reset()
	rendered := 0
	for !env.Done() {
		m := ctrl.Decide(env)
		out := env.StepManeuver(m)
		rec.Record(env, m, out)
		if rendered < *frames && env.Steps()%*every == 0 {
			renderFrame(env, m, out)
			rendered++
		}
	}
	tr := rec.Trace()
	fmt.Println()
	printSummary(tr)

	if *csvPath != "" {
		if err := obs.WriteFileAtomic(*csvPath, tr.WriteCSV); err != nil {
			log.Fatal(err)
		}
		fmt.Println("trace written to", *csvPath)
	}
	if *jsonlPath != "" {
		if err := obs.WriteFileAtomic(*jsonlPath, tr.WriteJSONL); err != nil {
			log.Fatal(err)
		}
		fmt.Println("trace written to", *jsonlPath)
	}
}

// printSummary renders the episode summary line plus the episode-level
// outcome flags (in replay mode these come from the trace's episode_end
// footer, not from a live environment).
func printSummary(tr trace.Trace) {
	s := tr.Summarize()
	fmt.Printf("episode: %d steps (%.1fs), mean v %.1f m/s, %d lane changes, total reward %.1f",
		s.Steps, s.Duration, s.MeanV, s.LaneChanges, s.TotalReward)
	switch {
	case tr.Collision:
		fmt.Println(" — COLLISION")
	case tr.Finished:
		fmt.Println(" — reached destination")
	default:
		fmt.Println(" — step budget exhausted")
	}
}

// replayTrace summarizes a JSONL trace exported with -jsonl.
func replayTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	printSummary(tr)
	return nil
}

func buildController(name string, cfg head.EnvConfig, seed int64) (head.Controller, error) {
	switch name {
	case "idm":
		return policy.NewIDMLC(cfg.Traffic.World), nil
	case "acc":
		return policy.NewACCLC(cfg.Traffic.World), nil
	case "tpbts":
		return policy.NewTPBTS(), nil
	case "head":
		fmt.Fprintln(os.Stderr, "training a small BP-DQN agent first (≈30s)...")
		rng := rand.New(rand.NewSource(seed))
		scale := experiments.Quick()
		trainEnv := head.NewEnv(cfg, nil, rng)
		rlCfg := rl.DefaultPDQNConfig()
		rlCfg.Warmup = 150
		agent := rl.NewBPDQN(rlCfg, trainEnv.Spec(), trainEnv.AMax(), 32, rng)
		rl.Train(agent, trainEnv, scale.TrainEpisodes, cfg.MaxSteps)
		return &head.AgentController{ControllerName: "HEAD", Agent: agent}, nil
	default:
		return nil, fmt.Errorf("unknown controller %q (want idm, acc, tpbts, or head)", name)
	}
}

// renderFrame draws the road strip ±60 m around the AV, one text row per
// lane: '>' conventional vehicles, 'A' the autonomous vehicle.
func renderFrame(env *head.Env, m world.Maneuver, out head.StepOutcome) {
	const halfSpan = 60.0
	const cols = 60 // 2 m per column
	av := env.Sim().AV.State
	lanes := env.Cfg.Traffic.World.Lanes
	rows := make([][]byte, lanes)
	for l := range rows {
		rows[l] = []byte(strings.Repeat(".", cols))
	}
	put := func(lane int, lon float64, ch byte) {
		if lane < 1 || lane > lanes {
			return
		}
		col := int((lon - av.Lon + halfSpan) / (2 * halfSpan) * cols)
		if col < 0 || col >= cols {
			return
		}
		rows[lane-1][col] = ch
	}
	for _, v := range env.Sim().Vehicles {
		put(v.State.Lat, v.State.Lon, '>')
	}
	put(av.Lat, av.Lon, 'A')
	fmt.Printf("t=%5.1fs  lon=%6.1fm  v=%5.1fm/s  maneuver=%v  r=%+.2f\n",
		float64(env.Steps())*env.Cfg.Traffic.World.Dt, av.Lon, av.V, m, out.Reward)
	for l, row := range rows {
		fmt.Printf("  lane %d |%s|\n", l+1, row)
	}
	fmt.Println()
}
