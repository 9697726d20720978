package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// ManifestFile is the file name Manifest.Write produces inside a run
// directory.
const ManifestFile = "manifest.json"

// Manifest records what produced a run directory: the tool, its scale and
// seed, the parallelism, a hash of the full configuration, wall-clock
// bounds, and the final metric snapshot. It answers "which run made this
// checkpoint?" without re-running anything.
type Manifest struct {
	Tool       string             `json:"tool"`
	Scale      string             `json:"scale,omitempty"`
	Seed       int64              `json:"seed"`
	Workers    int                `json:"workers"`
	ConfigHash string             `json:"config_hash,omitempty"`
	GoVersion  string             `json:"go_version,omitempty"`
	Start      time.Time          `json:"start"`
	End        time.Time          `json:"end"`
	DurationS  float64            `json:"duration_seconds"`
	Final      map[string]float64 `json:"final_metrics,omitempty"`
	// SLO is the final rolling-window SLO evaluation of a serving run
	// (an SLOStatus), Exemplars the drained tail-exemplar ring, and
	// Quality the final decision-drift status vs the behavioral baseline
	// (a quality.Status) — all typed any so obs stays ignorant of the
	// service wire forms.
	SLO       any `json:"slo,omitempty"`
	Exemplars any `json:"tail_exemplars,omitempty"`
	Quality   any `json:"quality,omitempty"`
	// Sessions is the binary-wire delta session cache's final counters
	// (a serve.SessionStats), present when any session registered.
	Sessions any `json:"session_cache,omitempty"`
}

// Write stores the manifest as dir/manifest.json (indented, trailing
// newline) through WriteJSONAtomic. DurationS is derived from Start/End
// when left zero.
func (m Manifest) Write(dir string) error {
	if m.DurationS == 0 && !m.Start.IsZero() && !m.End.IsZero() {
		m.DurationS = m.End.Sub(m.Start).Seconds()
	}
	return WriteJSONAtomic(filepath.Join(dir, ManifestFile), m)
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(data, &m)
	return m, err
}

// Hash returns a short stable digest of v's JSON form — the config hash
// manifests carry so two runs can be compared for "same settings" without
// diffing flags. Unmarshalable values hash to "unhashable".
func Hash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
