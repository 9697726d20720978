// Package phantom implements the strategy of phantom vehicle construction
// and spatial-temporal graph building of Section III-B: it selects the six
// target conventional vehicles around the autonomous vehicle and the six
// surrounding vehicles of each target, classifies every missing vehicle as
// range missing, occlusion missing, or inherent missing, presets phantom
// states per Equations (4)–(6), and assembles the z-step spatial-temporal
// graph of Equations (7)–(9) that LST-GAT consumes.
package phantom

import (
	"math"

	"head/internal/sensor"
	"head/internal/world"
)

// Slot indexes the six key areas of Figure 2 around a center vehicle.
type Slot int

// The six key areas, in the paper's order C1..C6.
const (
	FrontLeft Slot = iota
	Front
	FrontRight
	RearLeft
	Rear
	RearRight
)

// NumSlots is the number of key areas.
const NumSlots = 6

// laneOffset returns the lane offset of the slot relative to the center
// vehicle (-1 left, 0 same, +1 right).
func (s Slot) laneOffset() int {
	switch s {
	case FrontLeft, RearLeft:
		return -1
	case FrontRight, RearRight:
		return 1
	default:
		return 0
	}
}

// isFront reports whether the slot is ahead of the center vehicle.
func (s Slot) isFront() bool { return s <= FrontRight }

// avSlot returns, for target slot i, which of the target's own surrounder
// slots is occupied by the autonomous vehicle (the paper's footnote: A is
// C1.6, C2.5, C3.4, C4.3, C5.2 and C6.1).
func avSlot(i Slot) Slot { return Slot(NumSlots - 1 - int(i)) }

// MissingKind classifies why a vehicle slot is empty.
type MissingKind int

// The three missing cases of Section III-B Step 2, plus NotMissing for
// slots filled by observed vehicles.
const (
	NotMissing MissingKind = iota
	RangeMissing
	OcclusionMissing
	InherentMissing
)

// String implements fmt.Stringer.
func (k MissingKind) String() string {
	switch k {
	case NotMissing:
		return "observed"
	case RangeMissing:
		return "range"
	case OcclusionMissing:
		return "occlusion"
	case InherentMissing:
		return "inherent"
	default:
		return "unknown"
	}
}

// Feature is one node's state vector of Equations (7)–(8):
// [d_lat, d_lon, v_rel, IF] for conventional/phantom vehicles relative to
// the AV, or [A.lat, A.lon, A.v, 0] for the AV-occupied slots.
type Feature [4]float64

// FeatureDim is the width of a node state vector.
const FeatureDim = 4

// NumNodes is the node count of one spatial graph: 6 targets plus 6
// surrounders each (6 + 6×6 = 42).
const NumNodes = NumSlots + NumSlots*NumSlots

// TargetNode returns the node index of target i.
func TargetNode(i Slot) int { return int(i) }

// SurrounderNode returns the node index of surrounder j of target i.
func SurrounderNode(i, j Slot) int { return NumSlots + int(i)*NumSlots + int(j) }

// Config holds the geometry the construction needs.
type Config struct {
	Lanes     int     // κ
	LaneWidth float64 // wid_l
	R         float64 // sensor detection radius
	Dt        float64 // Δt, used to extrapolate gaps in observed histories
}

// TargetInfo describes one selected target slot at the current step.
type TargetInfo struct {
	ID      int         // real vehicle ID (any int); -1 for phantoms, which only Kind identifies
	Kind    MissingKind // how the slot was filled
	IsAV    bool        // always false for targets; kept for symmetry
	Current world.State // absolute state at the latest step (real or preset)
}

// Graph is the spatial-temporal graph G(t) of Equation (9): one node
// feature matrix per historical step plus the fixed edge structure
// expressed as per-target neighbor lists.
type Graph struct {
	// Steps[τ][node] is the state vector of a node at historical step τ
	// (oldest first). len(Steps) == z.
	Steps [][]Feature
	// Targets lists the node indices of the six targets.
	Targets []int
	// Neighbors[i] lists the nodes attended by target i: its six
	// surrounders plus itself (the self-loop edge).
	Neighbors [][]int
	// Info describes each target slot.
	Info [NumSlots]TargetInfo
	// AV is the autonomous vehicle's absolute state at the latest step.
	AV world.State
}

// trajectory is a vehicle's state at each historical step.
type trajectory []world.State

// Builder performs phantom construction over sensor histories.
type Builder struct {
	Cfg Config

	// trajectory pool and seen scratch, rewound at the start of every
	// build: trajectory values are copied into the Graph, never retained,
	// so the pool is safe to share across Build and BuildInto calls.
	trajs    []trajectory
	trajNext int
	seen     []bool
}

// NewBuilder returns a Builder for the given geometry.
func NewBuilder(cfg Config) *Builder { return &Builder{Cfg: cfg} }

// nearestInArea finds the observed vehicle occupying a key area around
// center: same lane offset, front/rear side, smallest longitudinal gap.
// With exclude set, the vehicle with ID excludeID is skipped. Any int is a
// valid vehicle ID, so no ID value can stand for "exclude nothing".
func nearestInArea(obs map[int]world.State, center world.State, slot Slot, exclude bool, excludeID int) (int, world.State, bool) {
	lane := center.Lat + slot.laneOffset()
	bestID, found := 0, false
	var bestState world.State
	bestGap := math.Inf(1)
	for id, st := range obs {
		if exclude && id == excludeID || st.Lat != lane {
			continue
		}
		d := st.Lon - center.Lon
		if slot.isFront() && d <= 0 || !slot.isFront() && d >= 0 {
			continue
		}
		// Ties break toward the smaller vehicle ID: the map's iteration
		// order is randomized per run, and the winner must not depend on
		// it for results to be reproducible.
		if g := math.Abs(d); g < bestGap || (g == bestGap && found && id < bestID) {
			bestGap, bestID, bestState, found = g, id, st, true
		}
	}
	return bestID, bestState, found
}

// getTraj hands out a zeroed z-step trajectory from the builder's pool.
// Pooled trajectories are valid until the next Build or BuildInto.
func (b *Builder) getTraj(z int) trajectory {
	if b.trajNext == len(b.trajs) {
		b.trajs = append(b.trajs, make(trajectory, z))
	}
	t := b.trajs[b.trajNext]
	if cap(t) < z {
		t = make(trajectory, z)
	}
	t = t[:z]
	clear(t)
	b.trajs[b.trajNext] = t
	b.trajNext++
	return t
}

// fillHistory builds a z-step trajectory for an observed vehicle, filling
// frames where the vehicle was not detected by constant-velocity
// extrapolation from the nearest frame where it was (an engineering choice;
// the paper presets only never-observed vehicles).
func (b *Builder) fillHistory(frames []sensor.Frame, id int) trajectory {
	z := len(frames)
	traj := b.getTraj(z)
	if cap(b.seen) < z {
		b.seen = make([]bool, z)
	}
	seen := b.seen[:z]
	for t := range seen {
		seen[t] = false
	}
	for t, f := range frames {
		if st, ok := f.Observed[id]; ok {
			traj[t] = st
			seen[t] = true
		}
	}
	for t := 0; t < z; t++ {
		if seen[t] {
			continue
		}
		// Find nearest seen frame.
		src := -1
		for d := 1; d < z; d++ {
			if t-d >= 0 && seen[t-d] {
				src = t - d
				break
			}
			if t+d < z && seen[t+d] {
				src = t + d
				break
			}
		}
		if src < 0 {
			continue // caller guarantees at least the last frame is seen
		}
		st := traj[src]
		st.Lon += st.V * b.Cfg.Dt * float64(t-src)
		traj[t] = st
	}
	return traj
}

// presetAround returns the preset phantom trajectory for a missing slot
// around a center trajectory, per Equations (4) and (5) (with the center
// being the AV for targets, or the target itself for its surrounders).
// kind selects range vs inherent presets.
func (b *Builder) presetAround(center trajectory, slot Slot, kind MissingKind) trajectory {
	traj := b.getTraj(len(center))
	for t, c := range center {
		switch kind {
		case InherentMissing:
			lat := 0
			if slot.laneOffset() > 0 {
				lat = b.Cfg.Lanes + 1
			}
			traj[t] = world.State{Lat: lat, Lon: c.Lon, V: c.V}
		default: // RangeMissing
			off := b.Cfg.R
			if !slot.isFront() {
				off = -b.Cfg.R
			}
			traj[t] = world.State{Lat: c.Lat + slot.laneOffset(), Lon: c.Lon + off, V: c.V}
		}
	}
	return traj
}

// presetOccluded returns the preset phantom trajectory of Equation (6): the
// surrounder in slot j == i of an observed target, placed beyond the target
// on the AV→target line (same longitudinal offset again).
func (b *Builder) presetOccluded(target, av trajectory, slot Slot) trajectory {
	traj := b.getTraj(len(target))
	for t := range target {
		c, a := target[t], av[t]
		traj[t] = world.State{
			Lat: c.Lat + slot.laneOffset(),
			Lon: c.Lon + world.RelLon(c, a),
			V:   c.V,
		}
	}
	return traj
}

// classifyMissing decides the missing kind of an empty slot around a
// center vehicle in lane centerLat.
func (b *Builder) classifyMissing(centerLat int, slot Slot) MissingKind {
	lane := centerLat + slot.laneOffset()
	if lane < 1 || lane > b.Cfg.Lanes {
		return InherentMissing
	}
	return RangeMissing
}

// Build runs the full three-step construction of Section III-B over the
// sensor history (oldest frame first; the last frame is the current step
// t). It requires a non-empty history; shorter-than-z histories produce a
// correspondingly shorter graph.
func (b *Builder) Build(frames []sensor.Frame) *Graph {
	return b.build(nil, frames)
}

// BuildInto runs the same construction but reuses g's storage when its
// shape matches, allocating nothing in steady state. The returned graph is
// valid until the next BuildInto call with the same g; callers that retain
// graphs (datasets) should use Build instead. A nil or wrong-shape g is
// replaced by a fresh one.
func (b *Builder) BuildInto(g *Graph, frames []sensor.Frame) *Graph {
	return b.build(g, frames)
}

func (b *Builder) build(g *Graph, frames []sensor.Frame) *Graph {
	z := len(frames)
	if z == 0 {
		return nil
	}
	b.trajNext = 0
	now := frames[z-1]
	avTraj := b.getTraj(z)
	for t, f := range frames {
		avTraj[t] = f.AV
	}

	if g == nil || len(g.Steps) != z {
		g = &Graph{
			Steps:     make([][]Feature, z),
			Targets:   make([]int, NumSlots),
			Neighbors: make([][]int, NumSlots),
		}
		for t := range g.Steps {
			g.Steps[t] = make([]Feature, NumNodes)
		}
	} else {
		// Zero-padding of phantom-target surrounders relies on zeroed rows.
		for t := range g.Steps {
			clear(g.Steps[t])
		}
	}
	g.AV = now.AV

	// Step 1+2 for targets: select or construct each target slot.
	var targetTrajs [NumSlots]trajectory
	for i := Slot(0); i < NumSlots; i++ {
		id, _, ok := nearestInArea(now.Observed, now.AV, i, false, 0)
		info := TargetInfo{ID: -1, Kind: NotMissing}
		var traj trajectory
		if ok {
			info.ID = id
			traj = b.fillHistory(frames, id)
		} else {
			info.Kind = b.classifyMissing(now.AV.Lat, i)
			traj = b.presetAround(avTraj, i, info.Kind)
		}
		info.Current = traj[z-1]
		g.Info[i] = info
		targetTrajs[i] = traj
	}

	// Step 2 for surrounders, then Step 3 feature assembly.
	for i := Slot(0); i < NumSlots; i++ {
		tgt := g.Info[i]
		tgtTraj := targetTrajs[i]
		nbrs := g.Neighbors[i][:0]
		for j := Slot(0); j < NumSlots; j++ {
			node := SurrounderNode(i, j)
			nbrs = append(nbrs, node)
			if j == avSlot(i) {
				// The AV occupies this slot: raw AV states (Eq. 8 row 1).
				for t := 0; t < z; t++ {
					a := avTraj[t]
					g.Steps[t][node] = Feature{float64(a.Lat), a.Lon, a.V, 0}
				}
				continue
			}
			if tgt.Kind != NotMissing {
				// Surrounders of a phantom target are zero-padded.
				continue
			}
			if id, _, ok := nearestInArea(now.Observed, tgt.Current, j, true, tgt.ID); ok {
				traj := b.fillHistory(frames, id)
				b.writeRelative(g, node, traj, avTraj, false)
				continue
			}
			// Missing surrounder: prioritize occlusion (slot j == i, the
			// diagonal cases of Figure 4) when the occluded position is
			// still on the road; otherwise range/inherent presets around
			// the target.
			var traj trajectory
			if j == i && tgt.Current.Lat+j.laneOffset() >= 1 && tgt.Current.Lat+j.laneOffset() <= b.Cfg.Lanes {
				traj = b.presetOccluded(tgtTraj, avTraj, j)
			} else {
				kind := b.classifyMissing(tgt.Current.Lat, j)
				traj = b.presetAround(tgtTraj, j, kind)
			}
			b.writeRelative(g, node, traj, avTraj, true)
		}
		nbrs = append(nbrs, TargetNode(i)) // self-loop
		g.Targets[i] = TargetNode(i)
		g.Neighbors[i] = nbrs
		b.writeRelative(g, TargetNode(i), tgtTraj, avTraj, tgt.Kind != NotMissing)
	}
	return g
}

// writeRelative fills a node's features at every step with the
// AV-relative state vector of Equation (7): [d_lat, d_lon, v_rel, IF].
func (b *Builder) writeRelative(g *Graph, node int, traj, av trajectory, isPhantom bool) {
	flag := 0.0
	if isPhantom {
		flag = 1
	}
	for t := range traj {
		c, a := traj[t], av[t]
		g.Steps[t][node] = Feature{
			world.RelLat(c, a, b.Cfg.LaneWidth),
			world.RelLon(c, a),
			world.RelV(c, a),
			flag,
		}
	}
}
