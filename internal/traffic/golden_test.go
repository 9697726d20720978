package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"head/internal/world"
)

var updateGolden = flag.Bool("update", false, "rewrite the paper-scale stepping golden from the current code")

const goldenPath = "testdata/golden_paper_scale.json"

// paperGolden pins 300 steps of the paper's road (DefaultConfig: 3 km,
// six lanes, 180 veh/km, 539 vehicles) under each car-following model.
type paperGolden struct {
	// GoArch pins the hashes to the architecture that recorded them:
	// libm and FMA contraction differ across ports.
	GoArch string `json:"goarch"`
	IDM    string `json:"idm_sha256"`
	Krauss string `json:"krauss_sha256"`
}

// paperScaleHash steps the paper-scale scene 300 times with a coasting AV
// and hashes every vehicle's ID, lane, Lon and V after each step.
func paperScaleHash(t *testing.T, model CarFollowing) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CarFollowing = model
	cfg.Krauss = KraussParams{Sigma: 0.5}
	s, err := New(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for step := 0; step < 300; step++ {
		s.Step(world.Maneuver{B: world.LaneKeep, A: 0})
		buf = buf[:0]
		for i := 0; i <= len(s.Vehicles); i++ {
			v := s.vehicleAt(i)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.ID))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.State.Lat))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.State.Lon))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.State.V))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPaperScaleGolden pins the simulator's trajectories on the paper's
// 539-vehicle road, where lanes are dense enough for exact position ties
// and many lane changes per step. Regenerate deliberately with
// `go test ./internal/traffic -run TestPaperScaleGolden -update`.
func TestPaperScaleGolden(t *testing.T) {
	got := paperGolden{GoArch: runtime.GOARCH, IDM: paperScaleHash(t, IDM), Krauss: paperScaleHash(t, Krauss)}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: idm=%s krauss=%s", got.IDM, got.Krauss)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to record): %v", err)
	}
	var want paperGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.GoArch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s: float libm/FMA behavior is arch-specific", want.GoArch, runtime.GOARCH)
	}
	if got.IDM != want.IDM {
		t.Errorf("IDM trajectories diverged from the golden:\n  got  %s\n  want %s", got.IDM, want.IDM)
	}
	if got.Krauss != want.Krauss {
		t.Errorf("Krauss trajectories diverged from the golden:\n  got  %s\n  want %s", got.Krauss, want.Krauss)
	}
}
