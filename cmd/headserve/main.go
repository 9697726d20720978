// Command headserve is the online decision service: it loads a headtrain
// checkpoint (the trained LST-GAT perception model and BP-DQN decision
// agent) and serves "observe → predict → act" requests over HTTP through a
// size-or-deadline micro-batcher, so many concurrent vehicle sessions share
// batched network forwards while every served decision stays bit-identical
// to the in-process serial path.
//
// Endpoints (one listener): POST /v1/decide (observation snapshot in,
// maneuver + parameterized action + attention rows out), GET /healthz, the
// shared observability surface (/metrics, /debug/pprof/*, /debug/vars),
// and — with telemetry on — /debug/slo (rolling SLO evaluation),
// /debug/trace (request span dump, Chrome trace JSON), /debug/exemplars
// (current tail captures), and — with -quality-baseline — /debug/quality
// (rolling decision-drift status). On SIGINT/SIGTERM the server drains: new
// decides are refused, in-flight requests are answered, the exemplar ring
// is flushed, and a run manifest (plus trace.json) is written.
//
// Request telemetry is strictly out of band: served decisions are
// bit-identical with -telemetry on, off, or sampled.
//
// Usage:
//
//	headserve -load dir [-scale quick|record|paper] [-seed N]       # must match training
//	headserve ... [-addr :8100] [-batch 8] [-max-wait 2ms] [-replicas N] [-queue N]
//	headserve ... [-session-cache 4096]                             # binary-wire delta sessions retained (LRU)
//	headserve ... [-out dir]                                        # manifest.json + trace.json on shutdown
//	headserve ... [-telemetry=false] [-trace-sample 0.1]            # request tracing off / sampled
//	headserve ... [-slo-p50 10ms] [-slo-p99 50ms] [-slo-errors 0.01] [-slo-window 60s]
//	headserve ... [-tail-exemplars 8]                               # slowest-K capture per window
//	headserve ... [-quality-baseline dir/quality_baseline.json]     # online decision-drift detection
//	headserve ... [-quality-window 60s] [-quality-psi-warn 0.25]    # drift window and thresholds
package main

import (
	"context"
	"flag"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"head/internal/experiments"
	"head/internal/nn"
	"head/internal/obs"
	"head/internal/obs/quality"
	"head/internal/obs/span"
	"head/internal/rl"
	"head/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("headserve: ")
	var (
		addr      = flag.String("addr", ":8100", "listen address")
		load      = flag.String("load", "", "checkpoint directory written by headtrain -out (required)")
		scaleName = flag.String("scale", "quick", "experiment scale the checkpoint was trained at: quick, record or paper")
		seed      = flag.Int64("seed", 0, "override the random seed (must match training)")
		batch     = flag.Int("batch", 8, "micro-batch size B: flush as soon as this many requests are pending")
		maxWait   = flag.Duration("max-wait", 2*time.Millisecond, "flush deadline: maximum time a request waits for batch mates")
		replicas  = flag.Int("replicas", 1, "model replicas answering batches concurrently")
		queue     = flag.Int("queue", 0, "submit queue bound (0 = 4x batch)")
		sessCap   = flag.Int("session-cache", serve.DefaultSessionCap, "binary-wire delta sessions retained (LRU; evicted sessions force a full resend)")
		out       = flag.String("out", "", "directory to write manifest.json (and trace.json) into on shutdown (empty disables)")

		telemetry = flag.Bool("telemetry", true, "request telemetry: span recording, SLO evaluation, tail exemplars")
		sample    = flag.Float64("trace-sample", 1, "fraction of requests whose spans are recorded (0 or 1 = all)")
		sloP50    = flag.Duration("slo-p50", 10*time.Millisecond, "p50 latency objective")
		sloP99    = flag.Duration("slo-p99", 50*time.Millisecond, "p99 latency objective")
		sloErrors = flag.Float64("slo-errors", 0.01, "error-rate budget (fraction of the window)")
		sloWindow = flag.Duration("slo-window", time.Minute, "rolling SLO evaluation window")
		tailK     = flag.Int("tail-exemplars", 8, "capture the slowest K requests per window (0 disables)")

		qualityBaseline = flag.String("quality-baseline", "", "behavioral baseline (quality_baseline.json) to monitor served decisions against (empty disables drift detection)")
		qualityWindow   = flag.Duration("quality-window", time.Minute, "rolling drift-detection window")
		qualityPSIWarn  = flag.Float64("quality-psi-warn", 0.25, "PSI warn threshold per metric (page at 2x)")
	)
	flag.Parse()
	if *load == "" {
		log.Fatal("pass -load dir (a checkpoint directory written by headtrain -out)")
	}
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

	predictor, agent, err := experiments.LoadCheckpoint(s, *load)
	if err != nil {
		log.Fatal(err)
	}
	cfg := s.EnvConfig()
	rcfg := serve.ConfigFor(cfg)
	reg := obs.NewRegistry()

	start := time.Now()
	b := serve.NewBatcher(serve.BatcherConfig{
		MaxBatch: *batch,
		MaxWait:  *maxWait,
		Queue:    *queue,
		Replicas: *replicas,
		Metrics:  reg,
	}, func() serve.Decider {
		// Each worker gets private model instances: layers cache forward
		// state and must never be shared across concurrent batches.
		a := rl.NewBPDQN(s.RLConfig(), rl.DefaultStateSpec(), cfg.Traffic.World.AMax, s.RLHidden, rand.New(rand.NewSource(0)))
		nn.CopyParams(a, agent)
		return serve.NewReplica(rcfg, predictor.Clone(), a)
	})

	// Decision-quality drift detection: load the behavioral baseline the
	// training run exported, score served decisions against it over a
	// rolling window. Out of band like the rest of telemetry — decisions
	// are bit-identical with or without -quality-baseline.
	var monitor *quality.Monitor
	if *qualityBaseline != "" {
		baseline, err := quality.ReadBaseline(*qualityBaseline)
		if err != nil {
			log.Fatal("quality baseline: ", err)
		}
		if baseline.ConfigHash != "" && baseline.ConfigHash != s.ConfigHash() {
			log.Printf("warning: quality baseline config hash %s != serving config %s (drift scores may reflect config skew, not behavior)",
				baseline.ConfigHash, s.ConfigHash())
		}
		monitor = quality.NewMonitor(baseline, quality.MonitorConfig{
			Window:  *qualityWindow,
			WarnPSI: *qualityPSIWarn,
		})
		monitor.Bind(reg, "quality")
		log.Printf("quality monitoring on: baseline %s (%s/%s, %d steps), window %v, warn PSI %g",
			*qualityBaseline, baseline.Tool, baseline.Scale, baseline.Steps, *qualityWindow, *qualityPSIWarn)
	}

	// Request telemetry: a span tracer for per-request phase attribution, a
	// rolling SLO engine exported through /metrics, and a tail-exemplar
	// ring. All out of band — decisions are identical with -telemetry=false.
	var (
		tel    *serve.Telemetry
		tracer *span.Tracer
		slo    *obs.SLO
		ring   *serve.ExemplarRing
	)
	if *telemetry || monitor != nil {
		tcfg := serve.TelemetryConfig{}
		if *telemetry {
			tracer = span.New(span.Config{})
			slo = obs.NewSLO(obs.SLOConfig{
				Window:      *sloWindow,
				P50TargetMs: float64(*sloP50) / float64(time.Millisecond),
				P99TargetMs: float64(*sloP99) / float64(time.Millisecond),
				ErrorBudget: *sloErrors,
			})
			slo.Bind(reg, "slo")
			if *tailK > 0 {
				ring = serve.NewExemplarRing(*tailK, *sloWindow, nil)
			}
			tcfg = serve.TelemetryConfig{Tracer: tracer, Sample: *sample, SLO: slo, Exemplars: ring}
		}
		if monitor != nil {
			tcfg.Quality = &serve.QualityFeed{Monitor: monitor, VehicleLen: cfg.Traffic.World.VehicleLen}
		}
		tel = serve.NewTelemetry(tcfg)
	}

	sessions := serve.NewSessionCache(*sessCap)
	srv := obs.NewHTTPServer(serve.NewMux(b, cfg.Sensor.Z, "f64", sessions, reg, tel))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving decisions on http://%s (batch %d, max-wait %v, %d replicas, z=%d frames)",
		ln.Addr(), *batch, *maxWait, *replicas, cfg.Sensor.Z)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), obs.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		log.Print("shutdown: ", err)
	}
	b.Close()

	if *out != "" {
		man := obs.Manifest{
			Tool:       "headserve",
			Scale:      *scaleName,
			Seed:       s.Seed,
			Workers:    *replicas,
			ConfigHash: s.ConfigHash(),
			GoVersion:  runtime.Version(),
			Start:      start,
			End:        time.Now(),
			Final:      reg.Snapshot(),
		}
		if slo != nil {
			man.SLO = slo.Status()
		}
		if exs := ring.Drain(); exs != nil {
			man.Exemplars = exs
		}
		if monitor != nil {
			man.Quality = monitor.Status()
		}
		if st := sessions.Stats(); st != nil && st.Stores > 0 {
			man.Sessions = st
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		if err := man.Write(*out); err != nil {
			log.Fatal(err)
		}
		if tracer != nil {
			if err := obs.WriteFileAtomic(filepath.Join(*out, "trace.json"), tracer.WriteChrome); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("manifest written to %s", *out)
	}
}
