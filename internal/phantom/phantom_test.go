package phantom

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/sensor"
	"head/internal/traffic"
	"head/internal/world"
)

func testBuilder() *Builder {
	return NewBuilder(Config{Lanes: 6, LaneWidth: 3.2, R: 100, Dt: 0.5})
}

// frameSeq builds z identical frames with the AV cruising and the given
// observed vehicles moving at constant velocity.
func frameSeq(z int, av world.State, observed map[int]world.State) []sensor.Frame {
	frames := make([]sensor.Frame, z)
	for t := 0; t < z; t++ {
		back := float64(z - 1 - t)
		f := sensor.Frame{
			AV:       world.State{Lat: av.Lat, Lon: av.Lon - av.V*0.5*back, V: av.V},
			Observed: make(map[int]world.State, len(observed)),
		}
		for id, st := range observed {
			f.Observed[id] = world.State{Lat: st.Lat, Lon: st.Lon - st.V*0.5*back, V: st.V}
		}
		frames[t] = f
	}
	return frames
}

func TestSlotHelpers(t *testing.T) {
	if FrontLeft.laneOffset() != -1 || Front.laneOffset() != 0 || RearRight.laneOffset() != 1 {
		t.Error("laneOffset mismatch")
	}
	if !Front.isFront() || Rear.isFront() {
		t.Error("isFront mismatch")
	}
	// Footnote mapping: A is C1.6, C2.5, C3.4, C4.3, C5.2, C6.1.
	want := map[Slot]Slot{FrontLeft: RearRight, Front: Rear, FrontRight: RearLeft,
		RearLeft: FrontRight, Rear: Front, RearRight: FrontLeft}
	for i, w := range want {
		if got := avSlot(i); got != w {
			t.Errorf("avSlot(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestNodeIndexing(t *testing.T) {
	if NumNodes != 42 {
		t.Fatalf("NumNodes = %d, want 42", NumNodes)
	}
	seen := map[int]bool{}
	for i := Slot(0); i < NumSlots; i++ {
		seen[TargetNode(i)] = true
		for j := Slot(0); j < NumSlots; j++ {
			n := SurrounderNode(i, j)
			if seen[n] {
				t.Fatalf("node %d assigned twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != NumNodes {
		t.Fatalf("indexing covers %d nodes, want %d", len(seen), NumNodes)
	}
}

func TestBuildEmptyHistory(t *testing.T) {
	if g := testBuilder().Build(nil); g != nil {
		t.Error("Build(nil) should return nil")
	}
}

func TestBuildGraphShape(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	frames := frameSeq(5, av, map[int]world.State{
		1: {Lat: 3, Lon: 540, V: 18},
	})
	g := b.Build(frames)
	if len(g.Steps) != 5 {
		t.Fatalf("z = %d, want 5", len(g.Steps))
	}
	for t_, step := range g.Steps {
		if len(step) != NumNodes {
			t.Fatalf("step %d has %d nodes", t_, len(step))
		}
	}
	if len(g.Targets) != 6 || len(g.Neighbors) != 6 {
		t.Fatalf("targets/neighbors: %d/%d", len(g.Targets), len(g.Neighbors))
	}
	for i, nbrs := range g.Neighbors {
		if len(nbrs) != 7 {
			t.Errorf("target %d has %d neighbors, want 7 (6 surrounders + self)", i, len(nbrs))
		}
		if nbrs[len(nbrs)-1] != TargetNode(Slot(i)) {
			t.Errorf("target %d missing self-loop", i)
		}
	}
}

func TestBuildSelectsObservedTargets(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	obs := map[int]world.State{
		1: {Lat: 2, Lon: 540, V: 18}, // front left
		2: {Lat: 3, Lon: 530, V: 19}, // front
		3: {Lat: 4, Lon: 520, V: 17}, // front right
		4: {Lat: 2, Lon: 460, V: 21}, // rear left
		5: {Lat: 3, Lon: 470, V: 22}, // rear
		6: {Lat: 4, Lon: 480, V: 20}, // rear right
	}
	g := b.Build(frameSeq(5, av, obs))
	for i := Slot(0); i < NumSlots; i++ {
		info := g.Info[i]
		if info.Kind != NotMissing {
			t.Errorf("slot %d: kind %v, want observed", i, info.Kind)
		}
		if info.ID != int(i)+1 {
			t.Errorf("slot %d: ID %d, want %d", i, info.ID, int(i)+1)
		}
	}
	// Front target feature check at the last step: d_lat=0, d_lon=30, v=-1.
	f := g.Steps[4][TargetNode(Front)]
	if f[0] != 0 || math.Abs(f[1]-30) > 1e-9 || math.Abs(f[2]-(-1)) > 1e-9 || f[3] != 0 {
		t.Errorf("front target feature = %v", f)
	}
}

func TestBuildNearestWins(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	obs := map[int]world.State{
		1: {Lat: 3, Lon: 560, V: 18},
		2: {Lat: 3, Lon: 530, V: 19}, // nearer: should be the Front target
	}
	g := b.Build(frameSeq(5, av, obs))
	if g.Info[Front].ID != 2 {
		t.Errorf("front target ID = %d, want 2 (nearest)", g.Info[Front].ID)
	}
}

func TestBuildRangeMissingTargets(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	g := b.Build(frameSeq(5, av, nil)) // nothing observed
	// Lanes 2,3,4 all exist, so every slot is range missing.
	for i := Slot(0); i < NumSlots; i++ {
		if g.Info[i].Kind != RangeMissing {
			t.Errorf("slot %d kind = %v, want range", i, g.Info[i].Kind)
		}
	}
	// Eq (4): front phantom at A.lon + R with A's velocity.
	cur := g.Info[Front].Current
	if cur.Lat != 3 || math.Abs(cur.Lon-600) > 1e-9 || cur.V != 20 {
		t.Errorf("front range phantom = %+v, want lane 3, lon 600, v 20", cur)
	}
	rl := g.Info[RearLeft].Current
	if rl.Lat != 2 || math.Abs(rl.Lon-400) > 1e-9 {
		t.Errorf("rear-left range phantom = %+v, want lane 2, lon 400", rl)
	}
	// Feature IF flag must be 1 for phantoms.
	if f := g.Steps[4][TargetNode(Front)]; f[3] != 1 {
		t.Errorf("phantom IF flag = %g, want 1", f[3])
	}
}

func TestBuildInherentMissing(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 1, Lon: 500, V: 20} // leftmost lane
	g := b.Build(frameSeq(5, av, nil))
	for _, i := range []Slot{FrontLeft, RearLeft} {
		info := g.Info[i]
		if info.Kind != InherentMissing {
			t.Errorf("slot %d kind = %v, want inherent", i, info.Kind)
		}
		// Eq (5): lat = 0, lon = A.lon, v = A.v — a moving road boundary.
		if info.Current.Lat != 0 || info.Current.Lon != 500 || info.Current.V != 20 {
			t.Errorf("slot %d phantom = %+v", i, info.Current)
		}
	}
	// Rightmost-lane case.
	av = world.State{Lat: 6, Lon: 500, V: 20}
	g = b.Build(frameSeq(5, av, nil))
	for _, i := range []Slot{FrontRight, RearRight} {
		if g.Info[i].Kind != InherentMissing || g.Info[i].Current.Lat != 7 {
			t.Errorf("slot %d = %+v, want inherent at lane 7", i, g.Info[i])
		}
	}
}

func TestBuildOcclusionMissingSurrounder(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	// One observed front vehicle 40 m ahead; its own front area (slot
	// Front, the diagonal (2,2) case) is empty, so an occlusion phantom is
	// placed 40 m beyond it per Eq (6).
	obs := map[int]world.State{1: {Lat: 3, Lon: 540, V: 18}}
	g := b.Build(frameSeq(5, av, obs))
	node := SurrounderNode(Front, Front)
	f := g.Steps[4][node]
	// Relative to AV: d_lat = 0, d_lon = (540 + 40) - 500 = 80, v = -2, IF = 1.
	if f[0] != 0 || math.Abs(f[1]-80) > 1e-9 || math.Abs(f[2]-(-2)) > 1e-9 || f[3] != 1 {
		t.Errorf("occlusion phantom feature = %v, want [0, 80, -2, 1]", f)
	}
}

func TestBuildAVSlotUsesRawState(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	obs := map[int]world.State{1: {Lat: 3, Lon: 540, V: 18}}
	g := b.Build(frameSeq(5, av, obs))
	// A is C2.5 (the rear surrounder of the front target).
	f := g.Steps[4][SurrounderNode(Front, Rear)]
	if f[0] != 3 || f[1] != 500 || f[2] != 20 || f[3] != 0 {
		t.Errorf("AV slot feature = %v, want raw [3, 500, 20, 0]", f)
	}
}

func TestBuildPhantomTargetSurroundersZeroPadded(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	g := b.Build(frameSeq(5, av, nil))
	// All targets are phantoms; their non-AV surrounders must be zero.
	for i := Slot(0); i < NumSlots; i++ {
		for j := Slot(0); j < NumSlots; j++ {
			if j == avSlot(i) {
				continue
			}
			f := g.Steps[4][SurrounderNode(i, j)]
			if f != (Feature{}) {
				t.Errorf("surrounder (%d,%d) of phantom target = %v, want zeros", i, j, f)
			}
		}
	}
}

func TestBuildObservedSurrounder(t *testing.T) {
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	obs := map[int]world.State{
		1: {Lat: 3, Lon: 540, V: 18}, // front target
		2: {Lat: 2, Lon: 560, V: 19}, // front-left of the front target
	}
	g := b.Build(frameSeq(5, av, obs))
	f := g.Steps[4][SurrounderNode(Front, FrontLeft)]
	if math.Abs(f[0]-(-3.2)) > 1e-9 || math.Abs(f[1]-60) > 1e-9 || f[3] != 0 {
		t.Errorf("observed surrounder feature = %v, want d_lat=-3.2 d_lon=60 IF=0", f)
	}
}

func TestFillHistoryExtrapolates(t *testing.T) {
	av := world.State{Lat: 3, Lon: 500, V: 20}
	frames := frameSeq(5, av, map[int]world.State{1: {Lat: 3, Lon: 540, V: 18}})
	// Erase the vehicle from the two oldest frames (occluded then).
	delete(frames[0].Observed, 1)
	delete(frames[1].Observed, 1)
	b := &Builder{Cfg: Config{Dt: 0.5}}
	traj := b.fillHistory(frames, 1)
	// Frame 2 is observed at lon 540 - 18*0.5*2 = 522; frames 1 and 0
	// extrapolate backwards at constant velocity.
	if math.Abs(traj[2].Lon-522) > 1e-9 {
		t.Fatalf("observed frame lon = %g, want 522", traj[2].Lon)
	}
	if math.Abs(traj[1].Lon-(522-9)) > 1e-9 || math.Abs(traj[0].Lon-(522-18)) > 1e-9 {
		t.Errorf("extrapolated lons = %g, %g", traj[0].Lon, traj[1].Lon)
	}
	if traj[0].Lat != 3 || traj[0].V != 18 {
		t.Errorf("extrapolation changed lane/velocity: %+v", traj[0])
	}
}

func TestBuildTemporalConsistency(t *testing.T) {
	// Relative features should evolve smoothly across steps for constant
	// velocities: d_lon changes by (v_c - v_a)·Δt each step.
	b := testBuilder()
	av := world.State{Lat: 3, Lon: 500, V: 20}
	obs := map[int]world.State{1: {Lat: 3, Lon: 540, V: 18}}
	g := b.Build(frameSeq(5, av, obs))
	for t_ := 1; t_ < 5; t_++ {
		prev := g.Steps[t_-1][TargetNode(Front)]
		cur := g.Steps[t_][TargetNode(Front)]
		if math.Abs((cur[1]-prev[1])-(-1)) > 1e-9 { // (18-20)*0.5 = -1
			t.Errorf("step %d: Δd_lon = %g, want -1", t_, cur[1]-prev[1])
		}
	}
}

func TestMissingKindString(t *testing.T) {
	if NotMissing.String() != "observed" || RangeMissing.String() != "range" ||
		OcclusionMissing.String() != "occlusion" || InherentMissing.String() != "inherent" {
		t.Error("MissingKind.String mismatch")
	}
	if MissingKind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}

// shiftFrames deep-copies frames with c added to the Lon of the AV and of
// every observed vehicle.
func shiftFrames(frames []sensor.Frame, c float64) []sensor.Frame {
	out := make([]sensor.Frame, len(frames))
	for t, f := range frames {
		av := f.AV
		av.Lon += c
		obs := make(map[int]world.State, len(f.Observed))
		for id, st := range f.Observed {
			st.Lon += c
			obs[id] = st
		}
		out[t] = sensor.Frame{AV: av, Observed: obs}
	}
	return out
}

// paperHistories drives the default paper-scale traffic for seeds 1–8,
// with an IDM-following AV, through the default sensor, and calls fn with
// the builder geometry and every full sensor history.
func paperHistories(t *testing.T, fn func(b *Builder, seed int64, step int, frames []sensor.Frame)) {
	t.Helper()
	tcfg := traffic.DefaultConfig()
	scfg := sensor.DefaultConfig()
	wc := tcfg.World
	b := NewBuilder(Config{Lanes: wc.Lanes, LaneWidth: wc.LaneWidth, R: scfg.R, Dt: wc.Dt})
	idm := traffic.DriverParams{DesiredV: wc.VMax, TimeHeadway: 1.5, MinGap: 2, MaxAccel: 1.5, ComfortDecel: 2}
	for seed := int64(1); seed <= 8; seed++ {
		sim, err := traffic.New(tcfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sens := sensor.New(scfg, wc.LaneWidth)
		for step := 0; step < scfg.Z+20; step++ {
			sens.Observe(sim.AV.State, sim.Vehicles)
			if sens.Ready() {
				fn(b, seed, step, sens.History())
			}
			leader := sim.Leader(sim.AV.State.Lat, sim.AV.State.Lon, sim.AV)
			gap, dv := math.Inf(1), 0.0
			if leader != nil {
				gap = leader.State.Lon - sim.AV.State.Lon - wc.VehicleLen
				dv = sim.AV.State.V - leader.State.V
			}
			sim.Step(world.Maneuver{B: world.LaneKeep, A: wc.ClampAccel(traffic.IDMAccel(idm, sim.AV.State.V, gap, dv))})
		}
	}
}

// TestBuildLongitudinalTranslation is the metamorphic check implied by the
// relative-state formulation of Equations (1)–(3) and (7): shifting the AV
// and every vehicle by the same longitudinal distance c must leave every
// relative node feature unchanged up to rounding, keep the same targets,
// and move only the lon column of the AV-occupied slots (Eq. 8 row 1 feeds
// the raw AV state), by exactly c up to rounding. The histories come from
// the default paper-scale traffic seen through the default sensor.
func TestBuildLongitudinalTranslation(t *testing.T) {
	const tol = 1e-9
	var worstRel, worstLon float64
	paperHistories(t, func(b *Builder, seed int64, step int, frames []sensor.Frame) {
		base := b.Build(shiftFrames(frames, 0))
		for _, c := range []float64{0.1, -250.5, 1000, 65536} {
			g := b.Build(shiftFrames(frames, c))
			for i := Slot(0); i < NumSlots; i++ {
				if g.Info[i].Kind != base.Info[i].Kind || g.Info[i].ID != base.Info[i].ID {
					t.Fatalf("seed %d step %d shift %g: target %d is %v/%d, want %v/%d", seed, step, c, i,
						g.Info[i].Kind, g.Info[i].ID, base.Info[i].Kind, base.Info[i].ID)
				}
			}
			for tau := range g.Steps {
				for n, f := range g.Steps[tau] {
					want := base.Steps[tau][n]
					if isAVNode(n) {
						if f[0] != want[0] || f[2] != want[2] || f[3] != want[3] {
							t.Fatalf("seed %d step %d shift %g: AV node %d lat/v/flag %v, want %v", seed, step, c, n, f, want)
						}
						d := math.Abs(f[1] - (want[1] + c))
						worstLon = math.Max(worstLon, d)
						if d > tol {
							t.Fatalf("seed %d step %d shift %g: AV node %d lon %v, want %v+%v", seed, step, c, n, f[1], want[1], c)
						}
						continue
					}
					for k := range f {
						d := math.Abs(f[k] - want[k])
						worstRel = math.Max(worstRel, d)
						if d > tol {
							t.Fatalf("seed %d step %d shift %g: node %d feature %d %v, want %v", seed, step, c, n, k, f[k], want[k])
						}
					}
				}
			}
		}
	})
	t.Logf("worst deviation: relative features %.3g, AV lon %.3g", worstRel, worstLon)
}

// relabelFrames copies frames with every vehicle ID shifted by d. A shift
// preserves ID order, so every ID tie-break resolves the same way.
func relabelFrames(frames []sensor.Frame, d int) []sensor.Frame {
	out := make([]sensor.Frame, len(frames))
	for t, f := range frames {
		obs := make(map[int]world.State, len(f.Observed))
		for id, st := range f.Observed {
			obs[id+d] = st
		}
		out[t] = sensor.Frame{AV: f.AV, Observed: obs}
	}
	return out
}

// TestBuildNegativeIDRelabel: wire IDs may be any int, so shifting every
// ID by −2 (vehicle 1 becomes −1) must leave every graph's node features,
// bit for bit, and every target kind unchanged, and map each real
// target's ID the same way. No ID value may act as a sentinel.
func TestBuildNegativeIDRelabel(t *testing.T) {
	graphs, withNeg := 0, 0
	paperHistories(t, func(b *Builder, seed int64, step int, frames []sensor.Frame) {
		base := b.Build(frames)
		g := b.Build(relabelFrames(frames, -2))
		graphs++
		if _, ok := frames[len(frames)-1].Observed[1]; ok {
			withNeg++
		}
		for i := Slot(0); i < NumSlots; i++ {
			want := base.Info[i]
			if want.Kind == NotMissing {
				want.ID -= 2
			}
			if g.Info[i] != want {
				t.Fatalf("seed %d step %d: target %d is %+v, want %+v", seed, step, i, g.Info[i], want)
			}
		}
		for tau := range g.Steps {
			for n, f := range g.Steps[tau] {
				if f != base.Steps[tau][n] {
					t.Fatalf("seed %d step %d: node %d at step %d is %v, want %v", seed, step, n, tau, f, base.Steps[tau][n])
				}
			}
		}
	})
	if withNeg == 0 {
		t.Fatalf("vehicle −1 was observed in none of %d graphs", graphs)
	}
	t.Logf("%d graphs, %d with vehicle −1 observed", graphs, withNeg)
}

// isAVNode reports whether node n is the surrounder slot the AV occupies.
func isAVNode(n int) bool {
	for i := Slot(0); i < NumSlots; i++ {
		if n == SurrounderNode(i, avSlot(i)) {
			return true
		}
	}
	return false
}
