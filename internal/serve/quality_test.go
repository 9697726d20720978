package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"head/internal/head"
	"head/internal/obs/quality"
	"head/internal/world"
)

// serveTestMonitor builds a monitor over a synthetic calm-cruising
// baseline covering every serve-side metric.
func serveTestMonitor() *quality.Monitor {
	rec := quality.NewRecorder("")
	for i := 0; i < 300; i++ {
		rec.Observe(quality.Sample{
			Behavior: 2, Accel: 0.2 - float64(i%3)*0.2, Speed: 17 + float64(i%5)*0.5,
			Neighbors: 2 + i%2, TTC: 4 + float64(i%4), TTCValid: true,
			AttnEntropy: 1.0 + float64(i%3)*0.1, AttnValid: true,
		})
	}
	return quality.NewMonitor(rec.Baseline(quality.Baseline{Tool: "test", ConfigHash: "feed"}), quality.MonitorConfig{})
}

func TestQualityFeedObserve(t *testing.T) {
	mon := serveTestMonitor()
	feed := &QualityFeed{Monitor: mon, VehicleLen: 5}
	o := &Observation{Frames: []Frame{{
		AV: world.State{Lat: 1, Lon: 100, V: 18},
		Vehicles: []Vehicle{
			{ID: 2, State: world.State{Lat: 1, Lon: 120, V: 14}}, // leader, closing
			{ID: 5, State: world.State{Lat: 2, Lon: 110, V: 20}},
		},
	}}}
	feed.Observe(o, Decision{Behavior: 2, Accel: 0.3, AttnEntropy: 1.1, attnValid: true})
	st := mon.Status()
	if st.Samples != 1 {
		t.Fatalf("samples = %d, want 1", st.Samples)
	}
	for _, m := range st.Metrics {
		if m.Name == quality.MetricTTC && m.WindowTotal != 1 {
			t.Fatalf("ttc window total = %d, want 1 (leader TTC not derived)", m.WindowTotal)
		}
	}
}

func TestQualityFeedNilSafe(t *testing.T) {
	var feed *QualityFeed
	feed.Observe(&Observation{}, Decision{})
	(&QualityFeed{}).Observe(nil, Decision{})
	(&QualityFeed{VehicleLen: 5}).Observe(&Observation{}, Decision{})
}

// TestQualityEndpointHTTP runs the full service path with quality
// monitoring on: served decisions must carry the attention-entropy scalar
// without the ?attention=1 row copies, feed the drift monitor, and
// surface a well-formed /debug/quality status.
func TestQualityEndpointHTTP(t *testing.T) {
	cfg := tinyEnvConfig()
	base := tinyServePredictor()
	env := head.NewEnv(cfg, base.Clone(), rand.New(rand.NewSource(21)))
	ctrl := &head.AgentController{ControllerName: "HEAD", Agent: tinyServeAgent(env)}
	rcfg := ConfigFor(cfg)

	env.Reset()
	for !env.Done() {
		o := Snapshot(env.SensorHistory())
		if o.Validate(cfg.Sensor.Z) == nil {
			break
		}
		env.StepManeuver(ctrl.Decide(env))
	}
	if env.Done() {
		t.Fatal("episode ended before the sensor history filled")
	}
	body, err := json.Marshal(Snapshot(env.SensorHistory()))
	if err != nil {
		t.Fatal(err)
	}

	mon := serveTestMonitor()
	tel := NewTelemetry(TelemetryConfig{
		Quality: &QualityFeed{Monitor: mon, VehicleLen: cfg.Traffic.World.VehicleLen},
	})
	b := NewBatcher(BatcherConfig{MaxBatch: 2},
		func() Decider { return NewReplica(rcfg, base.Clone(), tinyServeAgent(env)) })
	defer b.Close()
	srv := httptest.NewServer(NewMux(b, cfg.Sensor.Z, "f64", NewSessionCache(0), nil, tel))
	defer srv.Close()

	const n = 5
	for i := 0; i < n; i++ {
		resp, err := http.Post(srv.URL+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var dr DecideResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if dr.Decision.Attention != nil {
			t.Fatal("attention rows returned without ?attention=1")
		}
		if dr.Decision.AttnEntropy <= 0 {
			t.Fatalf("request %d: attn_entropy = %g, want > 0", i, dr.Decision.AttnEntropy)
		}
	}

	resp, err := http.Get(srv.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/quality status %d", resp.StatusCode)
	}
	var st quality.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Samples != n {
		t.Fatalf("quality samples = %d, want %d", st.Samples, n)
	}
	if len(st.Metrics) == 0 {
		t.Fatal("no per-metric drift rows")
	}
	switch st.Status {
	case "ok", "warn", "page":
	default:
		t.Fatalf("status = %q, want ok/warn/page", st.Status)
	}
	if st.BaselineHash != "feed" {
		t.Fatalf("baseline provenance lost: %+v", st)
	}
}
