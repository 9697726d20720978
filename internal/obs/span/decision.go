package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Decision is one per-step decision record: what the agent chose and the
// evidence behind it. One JSON line per sampled step flows to
// Config.Decisions.
type Decision struct {
	Lane     int64   `json:"lane"`     // lane id (matches the trace tid)
	Unit     string  `json:"unit"`     // lane display name (worker/unit id)
	Ep       int32   `json:"ep"`       // episode index, -1 outside training
	Step     int32   `json:"step"`     // step index within the episode
	Behavior string  `json:"behavior"` // chosen behaviour b
	Accel    float64 `json:"accel"`    // chosen acceleration a (m/s²)
	Reward   float64 `json:"reward"`   // total hybrid reward
	Safety   float64 `json:"safety"`   // unweighted reward terms
	Eff      float64 `json:"efficiency"`
	Comfort  float64 `json:"comfort"`
	Impact   float64 `json:"impact"`
	TTC      float64 `json:"ttc"` // time-to-collision this step, 0 when invalid
	// Attention holds the LST-GAT attention rows for the six surrounding
	// targets at the decision's input state (row = target, column =
	// attended neighbor); empty when the predictor exposes none.
	Attention [][]float64 `json:"attention,omitempty"`
}

// decisionSink serializes decision records onto one writer.
type decisionSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (d *decisionSink) init(w io.Writer) {
	if w != nil {
		d.enc = json.NewEncoder(w)
	}
}

// Decision emits one decision record for the current sampled step. Inside
// an unsampled step, on a nil lane, or without a decision sink it is a
// no-op, so call sites need no guards.
func (l *Lane) Decision(d Decision) { l.DecisionIn(-1, d) }

// DecisionIn is Decision filed under episode ep; ep < 0 keeps the lane's
// episode. A lock-step group steps several episodes inside one episode
// span, and each member's records carry the member's own episode.
func (l *Lane) DecisionIn(ep int, d Decision) {
	if !l.Sampled() || l.t.dec.enc == nil {
		return
	}
	d.Lane = l.id
	d.Unit = l.name
	d.Ep = l.ep
	if ep >= 0 {
		d.Ep = int32(ep)
	}
	d.Step = l.step
	s := &l.t.dec
	s.mu.Lock()
	s.enc.Encode(d) //nolint:errcheck // out-of-band stream; never fail the run
	s.mu.Unlock()
}

// ReadDecisions parses a JSON Lines decision stream written by the
// tracer.
func ReadDecisions(r io.Reader) ([]Decision, error) {
	var out []Decision
	dec := json.NewDecoder(r)
	for dec.More() {
		var d Decision
		if err := dec.Decode(&d); err != nil {
			return out, fmt.Errorf("span: decisions decode: %w", err)
		}
		out = append(out, d)
	}
	return out, nil
}
