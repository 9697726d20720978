// Quickstart: build a HEAD environment, train a small BP-DQN decision
// agent for a handful of episodes, and drive one test episode end to end,
// printing the maneuver decisions and the episode metrics.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"head/internal/eval"
	"head/internal/experiments"
	"head/internal/head"
	"head/internal/rl"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(42))

	// 1. A laptop-scale environment: a 600 m six-lane road at 120 veh/km.
	scale := experiments.Quick()
	scale.TrainEpisodes = 20 // quickstart budget

	// 2. Train the enhanced perception model (LST-GAT) on the synthetic
	// NGSIM-substitute dataset.
	fmt.Println("training LST-GAT perception model...")
	predictor, err := experiments.TrainedPredictor(scale, rng)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the BP-DQN decision agent inside the environment.
	fmt.Println("training BP-DQN decision agent...")
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = scale.RoadLength
	cfg.Traffic.Density = scale.Density
	cfg.MaxSteps = scale.MaxSteps
	env := head.NewEnv(cfg, predictor, rng)
	rlCfg := rl.DefaultPDQNConfig()
	rlCfg.Warmup = 150
	agent := rl.NewBPDQN(rlCfg, env.Spec(), env.AMax(), 32, rng)
	res := rl.Train(agent, env, scale.TrainEpisodes, scale.MaxSteps)
	fmt.Printf("trained %d episodes in %v\n", len(res.EpisodeRewards), res.TCT.Round(1e6))

	// 4. Drive one greedy test episode, narrating the decisions.
	fmt.Println("\ndriving one test episode:")
	testEnv := head.NewEnv(cfg, predictor, rand.New(rand.NewSource(7)))
	ctrl := &head.AgentController{ControllerName: "HEAD", Agent: agent}
	testEnv.Reset()
	for !testEnv.Done() {
		m := ctrl.Decide(testEnv)
		out := testEnv.StepManeuver(m)
		if testEnv.Steps()%20 == 0 || out.Done {
			av := testEnv.Sim().AV.State
			fmt.Printf("  t=%5.1fs lane=%d lon=%6.1fm v=%5.1fm/s maneuver=%v reward=%+.2f\n",
				float64(testEnv.Steps())*cfg.Traffic.World.Dt, av.Lat, av.Lon, av.V, m, out.Reward)
		}
	}

	// 5. Aggregate the paper's metrics over a few episodes, stepped in
	// lock-step as one group of five: one batched perception and one
	// batched decision per step.
	fmt.Println("\nevaluating over 5 episodes:")
	m := eval.Run(5, 5, 1, nil, nil, nil, func(ep int) (head.Controller, *head.Env) {
		return ctrl, head.NewEnv(cfg, predictor.Clone(), rand.New(rand.NewSource(8+int64(ep))))
	})
	fmt.Printf("  AvgDT-A %.1fs  AvgV-A %.1fm/s  AvgJ-A %.2fm/s²  Avg#-CA %.1f  MinTTC-A %.2fs\n",
		m.AvgDTA, m.AvgVA, m.AvgJA, m.AvgCA, m.MinTTCA)
}
