package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"head/internal/head"
	"head/internal/nn"
	"head/internal/obs/quality"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden hashes from the current code")

const goldenPath = "testdata/golden_zeroalloc.json"

// golden pins the observable outputs of the compute stack: the rendered
// Table I bytes and the trained-checkpoint bytes (LST-GAT + BP-DQN
// parameters) at micro scale. The zero-allocation kernel refactor must
// reproduce both hashes exactly — buffer reuse is only admissible while
// every float comes out bit-identical.
type golden struct {
	// GoArch pins the hashes to the architecture that recorded them:
	// libm and FMA contraction differ across ports, so the reference
	// values are only comparable on the same GOARCH.
	GoArch     string `json:"goarch"`
	TableI     string `json:"table_i_sha256"`
	Checkpoint string `json:"checkpoint_sha256"`
}

// goldenState runs the pinned workload: one Table I at scale s and one
// predictor+agent training run checkpointed through Framework.Save.
func goldenState(t *testing.T, s Scale) (tableI, checkpoint string) {
	t.Helper()
	rows, err := TableI(s)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	PrintEndToEnd(&table, "Table I", rows)

	predictor, err := TrainedPredictor(s, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	agent, _ := s.trainHEADAgent(head.Full, predictor, 0)
	var ckpt bytes.Buffer
	if err := nn.Save(&ckpt, predictor); err != nil {
		t.Fatal(err)
	}
	if err := nn.Save(&ckpt, agent.(nn.Module)); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	return sum(table.Bytes()), sum(ckpt.Bytes())
}

// TestGoldenBitIdentity is the pre/post-refactor gate: the golden file was
// recorded from the allocating compute core before the in-place kernel
// rewrite, and every subsequent revision must reproduce the same Table I
// bytes and checkpoint bytes. Regenerate deliberately with
// `go test ./internal/experiments -run TestGoldenBitIdentity -update`.
func TestGoldenBitIdentity(t *testing.T) {
	tableI, checkpoint := goldenState(t, micro())
	if *updateGolden {
		g := golden{GoArch: runtime.GOARCH, TableI: tableI, Checkpoint: checkpoint}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: table_i=%s checkpoint=%s", tableI, checkpoint)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to record): %v", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.GoArch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s: float libm/FMA behavior is arch-specific", want.GoArch, runtime.GOARCH)
	}
	if tableI != want.TableI {
		t.Errorf("Table I bytes diverged from the pre-refactor golden:\n  got  %s\n  want %s", tableI, want.TableI)
	}
	if checkpoint != want.Checkpoint {
		t.Errorf("trained checkpoint bytes diverged from the pre-refactor golden:\n  got  %s\n  want %s", checkpoint, want.Checkpoint)
	}
}

// TestBatchEnvsBitIdentity is the batched-execution-engine gate: Table I
// bytes and trained-checkpoint bytes must be identical whether the suite
// runs serially or with lock-step evaluation groups and training-side
// batch mechanisms enabled. Combined with TestGoldenBitIdentity (which
// pins the serial run to the pre-batching golden), this proves the
// batched engine changed only wall-clock time, never a bit of output. The
// HEAD evaluation also profiles its decisions, and the quality baseline
// must come out byte-identical at every width too.
func TestBatchEnvsBitIdentity(t *testing.T) {
	state := func(batchEnvs int) (string, string, []byte) {
		s := micro()
		s.BatchEnvs = batchEnvs
		s.Quality = quality.NewRecorder("HEAD")
		table, ckpt := goldenState(t, s)
		if s.Quality.Steps() == 0 {
			t.Fatalf("BatchEnvs=%d: the HEAD evaluation profiled no decisions", batchEnvs)
		}
		base, err := json.Marshal(s.Quality.Baseline(quality.Baseline{Tool: "golden"}))
		if err != nil {
			t.Fatal(err)
		}
		return table, ckpt, base
	}
	wantTable, wantCkpt, wantBase := state(1)
	for _, be := range []int{2, 8} {
		gotTable, gotCkpt, gotBase := state(be)
		if gotTable != wantTable {
			t.Errorf("BatchEnvs=%d Table I bytes diverged:\n  got  %s\n  want %s", be, gotTable, wantTable)
		}
		if gotCkpt != wantCkpt {
			t.Errorf("BatchEnvs=%d checkpoint bytes diverged:\n  got  %s\n  want %s", be, gotCkpt, wantCkpt)
		}
		if !bytes.Equal(gotBase, wantBase) {
			t.Errorf("BatchEnvs=%d quality baseline bytes diverged:\n  got  %s\n  want %s", be, gotBase, wantBase)
		}
	}
}
