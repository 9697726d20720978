// Package traffic is a from-scratch microscopic multi-lane traffic
// simulator that substitutes for SUMO in the HEAD reproduction. It
// simulates a straight multi-lane road populated by conventional vehicles
// driven by the Intelligent Driver Model (IDM) for car following and a
// MOBIL-style incentive/safety model for lane changing (the same model
// family as SUMO's default Krauss/LC2013 drivers), plus one externally
// controlled autonomous vehicle.
//
// The simulator advances in discrete Δt steps, updates every vehicle
// simultaneously from the previous step's states (matching the paper's
// synchronous time-step model), and reports collisions involving the
// autonomous vehicle.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"head/internal/world"
)

// DriverParams are the per-vehicle parameters of the IDM car-following
// model and the MOBIL lane-change model. Heterogeneous parameters across
// vehicles produce the diverse, NGSIM-like behavior the prediction task
// needs.
type DriverParams struct {
	DesiredV     float64 // v0: desired velocity, m/s
	TimeHeadway  float64 // T: desired time headway, s
	MinGap       float64 // s0: standstill minimum gap, m
	MaxAccel     float64 // a: maximum acceleration, m/s²
	ComfortDecel float64 // b: comfortable deceleration, m/s²
	Politeness   float64 // p: MOBIL politeness factor
	LCThreshold  float64 // Δa_th: lane change incentive threshold, m/s²
	SafeDecel    float64 // b_safe: maximum deceleration imposed on new follower, m/s²
}

// SampleDriverParams draws heterogeneous driver parameters from rng, within
// the traffic restrictions of cfg.
func SampleDriverParams(cfg world.Config, rng *rand.Rand) DriverParams {
	return DriverParams{
		DesiredV:     cfg.VMax * (0.75 + 0.25*rng.Float64()),
		TimeHeadway:  1.0 + 0.8*rng.Float64(),
		MinGap:       2.0 + rng.Float64(),
		MaxAccel:     1.0 + 1.5*rng.Float64(),
		ComfortDecel: 1.5 + 1.0*rng.Float64(),
		Politeness:   0.2 + 0.4*rng.Float64(),
		LCThreshold:  0.1 + 0.2*rng.Float64(),
		SafeDecel:    cfg.AMax,
	}
}

// Vehicle is one simulated vehicle. IsAV marks the externally controlled
// autonomous vehicle; all other vehicles are "conventional" in the paper's
// terminology and drive themselves.
type Vehicle struct {
	ID     int
	State  world.State
	Params DriverParams
	IsAV   bool

	// EnterStep and ExitStep bracket the vehicle's traversal of the road
	// segment for driving-time metrics; ExitStep is -1 until the vehicle
	// passes the road end.
	EnterStep int
	ExitStep  int
}

// Neighborhood identifies the six key areas around a center vehicle from
// Figure 2: front left, front, front right, rear left, rear, rear right.
// Entries are nil when no vehicle occupies the area (missing).
type Neighborhood struct {
	FrontLeft, Front, FrontRight *Vehicle
	RearLeft, Rear, RearRight    *Vehicle
}

// Slots returns the six areas in the paper's order C1..C6 (front left,
// front, front right, rear left, rear, rear right).
func (n Neighborhood) Slots() [6]*Vehicle {
	return [6]*Vehicle{n.FrontLeft, n.Front, n.FrontRight, n.RearLeft, n.Rear, n.RearRight}
}

// Config configures a simulation.
type Config struct {
	World   world.Config
	Density float64 // vehicles per kilometer of road (all lanes combined)
	// SpawnSpan optionally restricts spawning to [SpawnMin, SpawnMax]
	// longitudinally; when both are zero the whole road is populated.
	SpawnMin, SpawnMax float64
	// CarFollowing selects the conventional vehicles' longitudinal
	// driver model (IDM by default; Krauss reproduces SUMO's default
	// stochastic model and its metastable jams).
	CarFollowing CarFollowing
	// Krauss holds the Krauss model's extra parameters; ignored for IDM.
	Krauss KraussParams
}

// DefaultConfig returns the paper's simulated environment: the default
// world on a 3 km six-lane road with 180 vehicles per kilometer.
func DefaultConfig() Config {
	return Config{World: world.DefaultConfig(), Density: 180}
}

// Sim is a running simulation. The zero value is not usable; construct with
// New. A Sim is not safe for concurrent use: its neighbor queries rebuild
// the lane index they read.
type Sim struct {
	Cfg      Config
	AV       *Vehicle
	Vehicles []*Vehicle // conventional vehicles only
	StepNum  int
	rng      *rand.Rand
	nextID   int

	// Collision state, set when the AV crashes into a vehicle.
	AVCollided bool

	// steady-state scratch: the persistent sorter, the per-step plan
	// buffer and the lane index keep Step free of heap allocations.
	sorter lonSorter
	plans  []planned
	// lanes[k] holds the vehicles in lane laneBase+k, the AV included,
	// ordered by Lon (see reindex).
	lanes    [][]*Vehicle
	laneBase int
}

// planned pairs a vehicle with its committed next state.
type planned struct {
	v  *Vehicle
	st world.State
}

// lonSorter orders vehicles by longitudinal position; a pointer receiver
// lets sortVehicles reuse one interface value without allocating.
type lonSorter struct{ vs []*Vehicle }

func (l *lonSorter) Len() int           { return len(l.vs) }
func (l *lonSorter) Swap(i, j int)      { l.vs[i], l.vs[j] = l.vs[j], l.vs[i] }
func (l *lonSorter) Less(i, j int) bool { return l.vs[i].State.Lon < l.vs[j].State.Lon }

// New builds a simulation with conventional vehicles spawned at the target
// density and the autonomous vehicle at the road origin on a random lane.
// Initial velocities are drawn near each driver's desired velocity.
func New(cfg Config, rng *rand.Rand) (*Sim, error) {
	if err := cfg.World.Validate(); err != nil {
		return nil, err
	}
	if cfg.Density < 0 {
		return nil, fmt.Errorf("traffic: negative density %g", cfg.Density)
	}
	s := &Sim{Cfg: cfg, rng: rng}
	w := cfg.World
	spawnMin, spawnMax := cfg.SpawnMin, cfg.SpawnMax
	if spawnMax <= spawnMin {
		spawnMin, spawnMax = 0, w.RoadLength
	}
	span := spawnMax - spawnMin
	total := int(cfg.Density * span / 1000)
	perLane := total / w.Lanes
	for lane := 1; lane <= w.Lanes; lane++ {
		if perLane == 0 {
			continue
		}
		gap := span / float64(perLane)
		for k := 0; k < perLane; k++ {
			lon := spawnMin + (float64(k)+0.25+0.5*rng.Float64())*gap
			p := SampleDriverParams(w, rng)
			v := w.ClampV(p.DesiredV * (0.7 + 0.3*rng.Float64()))
			s.Vehicles = append(s.Vehicles, &Vehicle{
				ID:        s.nextID,
				State:     world.State{Lat: lane, Lon: lon, V: v},
				Params:    p,
				EnterStep: 0,
				ExitStep:  -1,
			})
			s.nextID++
		}
	}
	avLane := 1 + rng.Intn(w.Lanes)
	avV := w.ClampV(0.5 * w.VMax)
	s.AV = &Vehicle{
		ID:       s.nextID,
		State:    world.State{Lat: avLane, Lon: 0, V: avV},
		IsAV:     true,
		ExitStep: -1,
	}
	s.nextID++
	// Clear a starting gap around the AV so episodes do not begin inside a
	// collision.
	clear := 2 * w.VehicleLen
	kept := s.Vehicles[:0]
	for _, v := range s.Vehicles {
		if v.State.Lat == avLane && math.Abs(v.State.Lon-s.AV.State.Lon) < clear+w.VehicleLen {
			continue
		}
		kept = append(kept, v)
	}
	s.Vehicles = kept
	s.sortVehicles()
	s.plans = make([]planned, 0, len(s.Vehicles))
	// Every lane list can hold every vehicle, so lane changes never grow it.
	s.laneBase = 1
	s.lanes = make([][]*Vehicle, w.Lanes)
	for k := range s.lanes {
		s.lanes[k] = make([]*Vehicle, 0, len(s.Vehicles)+1)
	}
	return s, nil
}

// vehicleAt indexes every vehicle with the AV as the last entry; loops
// running i over [0, len(Vehicles)] visit the same Vehicles-then-AV order
// the old slice-building all() helper produced, without allocating.
func (s *Sim) vehicleAt(i int) *Vehicle {
	if i == len(s.Vehicles) {
		return s.AV
	}
	return s.Vehicles[i]
}

// sortVehicles orders the conventional vehicles by longitudinal position.
// The order fixes which driver draws which random numbers in Step, and it
// lets reindex build each lane list with one comparison per vehicle.
func (s *Sim) sortVehicles() {
	s.sorter.vs = s.Vehicles
	sort.Sort(&s.sorter)
}

// reindex rebuilds every lane list from the current states. It walks the
// vehicles in vehicleAt order and inserts stably, so vehicles at equal Lon
// keep that order (the AV after conventional vehicles) and the first match
// in a list is the vehicle a scan over vehicleAt order would pick.
func (s *Sim) reindex() {
	for k := range s.lanes {
		s.lanes[k] = s.lanes[k][:0]
	}
	for i := 0; i <= len(s.Vehicles); i++ {
		v := s.vehicleAt(i)
		k := v.State.Lat - s.laneBase
		if k < 0 || k >= len(s.lanes) {
			s.widenIndex(v.State.Lat)
			k = v.State.Lat - s.laneBase
		}
		l := append(s.lanes[k], v)
		j := len(l) - 1
		for ; j > 0 && l[j-1].State.Lon > v.State.Lon; j-- {
			l[j] = l[j-1]
		}
		l[j] = v
		s.lanes[k] = l
	}
}

// widenIndex adds empty lists until the index covers lane. Only vehicles
// placed off the configured road need it, so Step never allocates here.
func (s *Sim) widenIndex(lane int) {
	for lane < s.laneBase {
		s.lanes = append([][]*Vehicle{nil}, s.lanes...)
		s.laneBase--
	}
	for lane >= s.laneBase+len(s.lanes) {
		s.lanes = append(s.lanes, nil)
	}
}

// laneList returns lane's index list, nil for a lane outside the index
// (no vehicle is in it).
func (s *Sim) laneList(lane int) []*Vehicle {
	k := lane - s.laneBase
	if k < 0 || k >= len(s.lanes) {
		return nil
	}
	return s.lanes[k]
}

// behind returns how many vehicles of the lane list l are behind lon.
func behind(l []*Vehicle, lon float64) int {
	return sort.Search(len(l), func(i int) bool { return l[i].State.Lon >= lon })
}

// Leader returns the nearest vehicle other than exclude ahead of lon in
// lane lane, or nil. Of vehicles at the same position it returns the first
// in Vehicles order, the AV last.
func (s *Sim) Leader(lane int, lon float64, exclude *Vehicle) *Vehicle {
	s.reindex()
	return s.leader(lane, lon, exclude)
}

func (s *Sim) leader(lane int, lon float64, exclude *Vehicle) *Vehicle {
	l := s.laneList(lane)
	i := sort.Search(len(l), func(i int) bool { return l[i].State.Lon > lon })
	for ; i < len(l); i++ {
		if l[i] != exclude {
			return l[i]
		}
	}
	return nil
}

// Follower returns the nearest vehicle other than exclude behind lon in
// lane lane, or nil. Of vehicles at the same position it returns the first
// in Vehicles order, the AV last.
func (s *Sim) Follower(lane int, lon float64, exclude *Vehicle) *Vehicle {
	s.reindex()
	return s.follower(lane, lon, exclude)
}

func (s *Sim) follower(lane int, lon float64, exclude *Vehicle) *Vehicle {
	l := s.laneList(lane)
	// Walk down the groups of equal Lon behind lon; the first vehicle of
	// the highest group that is not exclude wins.
	for hi := behind(l, lon); hi > 0; {
		lo := hi - 1
		for lo > 0 && l[lo-1].State.Lon == l[lo].State.Lon {
			lo--
		}
		for _, v := range l[lo:hi] {
			if v != exclude {
				return v
			}
		}
		hi = lo
	}
	return nil
}

// NeighborsOf returns the occupants of the six key areas around center.
func (s *Sim) NeighborsOf(center *Vehicle) Neighborhood {
	s.reindex()
	st := center.State
	return Neighborhood{
		FrontLeft:  s.leader(st.Lat-1, st.Lon, center),
		Front:      s.leader(st.Lat, st.Lon, center),
		FrontRight: s.leader(st.Lat+1, st.Lon, center),
		RearLeft:   s.follower(st.Lat-1, st.Lon, center),
		Rear:       s.follower(st.Lat, st.Lon, center),
		RearRight:  s.follower(st.Lat+1, st.Lon, center),
	}
}

// IDMAccel computes the Intelligent Driver Model acceleration for a vehicle
// with params p at velocity v, given the gap (bumper-to-bumper distance)
// and closing speed dv = v − vLeader to its leader. With no leader pass
// gap = +Inf and dv = 0.
func IDMAccel(p DriverParams, v, gap, dv float64) float64 {
	free := 1 - math.Pow(v/math.Max(p.DesiredV, 0.1), 4)
	if math.IsInf(gap, 1) {
		return p.MaxAccel * free
	}
	sStar := p.MinGap + math.Max(0, v*p.TimeHeadway+v*dv/(2*math.Sqrt(p.MaxAccel*p.ComfortDecel)))
	gap = math.Max(gap, 0.1)
	return p.MaxAccel * (free - (sStar/gap)*(sStar/gap))
}

// accelToward computes the IDM acceleration of vehicle v if it were driving
// in lane lane at its current longitudinal position.
func (s *Sim) accelToward(v *Vehicle, lane int) float64 {
	leader := s.leader(lane, v.State.Lon, v)
	gap, dv := math.Inf(1), 0.0
	if leader != nil {
		gap = leader.State.Lon - v.State.Lon - s.Cfg.World.VehicleLen
		dv = v.State.V - leader.State.V
	}
	return IDMAccel(v.Params, v.State.V, gap, dv)
}

// slotTaken reports whether a vehicle other than v in lane lane is closer
// than VehicleLen+1 to v's position. The distance grows along the lane
// list in both directions from v.Lon, so each walk stops at its first
// vehicle outside the slot.
func (s *Sim) slotTaken(v *Vehicle, lane int) bool {
	l := s.laneList(lane)
	reach := s.Cfg.World.VehicleLen + 1
	i := behind(l, v.State.Lon)
	for j := i; j < len(l) && math.Abs(l[j].State.Lon-v.State.Lon) < reach; j++ {
		if l[j] != v {
			return true
		}
	}
	for j := i - 1; j >= 0 && math.Abs(l[j].State.Lon-v.State.Lon) < reach; j-- {
		if l[j] != v {
			return true
		}
	}
	return false
}

// laneChangeDecision evaluates the MOBIL criterion for vehicle v toward
// lane target. It returns true when the change is safe for the new
// follower and the weighted acceleration advantage exceeds the driver's
// threshold.
func (s *Sim) laneChangeDecision(v *Vehicle, target int) bool {
	if target < 1 || target > s.Cfg.World.Lanes {
		return false
	}
	w := s.Cfg.World
	// Physical feasibility: target slot must not overlap another vehicle.
	if s.slotTaken(v, target) {
		return false
	}
	// Safety: new follower must not need to brake harder than b_safe.
	newFollower := s.follower(target, v.State.Lon, v)
	if newFollower != nil {
		gap := v.State.Lon - newFollower.State.Lon - w.VehicleLen
		dv := newFollower.State.V - v.State.V
		aAfter := IDMAccel(newFollower.Params, newFollower.State.V, gap, dv)
		if aAfter < -v.Params.SafeDecel {
			return false
		}
	}
	// Incentive: own gain plus politeness-weighted follower gains.
	aOld := s.accelToward(v, v.State.Lat)
	aNew := s.accelToward(v, target)
	gain := aNew - aOld
	if newFollower != nil {
		gapB := v.State.Lon - newFollower.State.Lon - w.VehicleLen
		dvB := newFollower.State.V - v.State.V
		aFollowerAfter := IDMAccel(newFollower.Params, newFollower.State.V, gapB, dvB)
		aFollowerBefore := s.accelToward(newFollower, target)
		gain += v.Params.Politeness * (aFollowerAfter - aFollowerBefore)
	}
	oldFollower := s.follower(v.State.Lat, v.State.Lon, v)
	if oldFollower != nil {
		aOldFollowerBefore := s.accelToward(oldFollower, v.State.Lat)
		// After v leaves, the old follower follows v's leader.
		leader := s.leader(v.State.Lat, v.State.Lon, v)
		gapA, dvA := math.Inf(1), 0.0
		if leader != nil {
			gapA = leader.State.Lon - oldFollower.State.Lon - w.VehicleLen
			dvA = oldFollower.State.V - leader.State.V
		}
		aOldFollowerAfter := IDMAccel(oldFollower.Params, oldFollower.State.V, gapA, dvA)
		gain += v.Params.Politeness * (aOldFollowerAfter - aOldFollowerBefore)
	}
	return gain > v.Params.LCThreshold
}

// LaneChangeOK reports whether the MOBIL safety and incentive criteria
// allow vehicle v to change to the target lane. Exported for decision
// policies that reuse the conventional lane-change model.
func (s *Sim) LaneChangeOK(v *Vehicle, target int) bool {
	s.reindex()
	return s.laneChangeDecision(v, target)
}

// AccelToward returns the IDM acceleration vehicle v would apply if it
// were driving in the given lane. Exported for decision policies that
// reuse the conventional car-following model.
func (s *Sim) AccelToward(v *Vehicle, lane int) float64 {
	s.reindex()
	return s.accelToward(v, lane)
}

// planConventional returns the maneuver a conventional vehicle performs
// this step: an IDM acceleration plus an occasional MOBIL lane change.
func (s *Sim) planConventional(v *Vehicle) world.Maneuver {
	b := world.LaneKeep
	// Evaluate lane changes only sporadically (roughly every few steps per
	// vehicle) to avoid oscillation, mirroring SUMO's lane-change cooldown.
	if s.rng.Float64() < 0.3 {
		left, right := v.State.Lat-1, v.State.Lat+1
		canLeft := s.laneChangeDecision(v, left)
		canRight := s.laneChangeDecision(v, right)
		switch {
		case canLeft && canRight:
			if s.rng.Float64() < 0.5 {
				b = world.LaneLeft
			} else {
				b = world.LaneRight
			}
		case canLeft:
			b = world.LaneLeft
		case canRight:
			b = world.LaneRight
		}
	}
	lane := v.State.Lat + b.LaneDelta()
	a := s.Cfg.World.ClampAccel(s.followAccel(v, lane))
	return world.Maneuver{B: b, A: a}
}

// StepResult summarizes one simulation step.
type StepResult struct {
	// AVCollision is true when the AV overlapped another vehicle or left
	// the road this step (terminal in the paper's episode definition).
	AVCollision bool
	// AVFinished is true when the AV passed the road end this step.
	AVFinished bool
}

// Step advances the simulation by Δt. All conventional vehicles plan from
// the pre-step states, the AV performs avManeuver, and then all states are
// committed simultaneously.
func (s *Sim) Step(avManeuver world.Maneuver) StepResult {
	w := s.Cfg.World
	var res StepResult
	// Nothing moves until the commit, so one index serves every plan.
	s.reindex()
	plans := s.plans[:0]
	for _, v := range s.Vehicles {
		m := s.planConventional(v)
		next, err := w.Apply(v.State, m)
		if err != nil {
			// Defensive: a planned lane change off the road degrades to
			// lane keeping (the planner should never propose one).
			next, _ = w.Apply(v.State, world.Maneuver{B: world.LaneKeep, A: m.A})
		}
		plans = append(plans, planned{v, next})
	}
	s.plans = plans
	avNext, err := w.Apply(s.AV.State, avManeuver)
	if err == world.ErrOffRoad {
		s.AVCollided = true
		res.AVCollision = true
		return res
	}
	// Commit.
	for _, p := range plans {
		p.v.State = p.st
	}
	s.AV.State = avNext
	s.StepNum++
	s.sortVehicles()
	// Exit bookkeeping.
	for i := 0; i <= len(s.Vehicles); i++ {
		v := s.vehicleAt(i)
		if v.ExitStep < 0 && v.State.Lon >= w.RoadLength {
			v.ExitStep = s.StepNum
		}
	}
	// AV collision check: longitudinal overlap with any same-lane vehicle.
	for _, v := range s.Vehicles {
		if v.State.Lat == s.AV.State.Lat &&
			math.Abs(v.State.Lon-s.AV.State.Lon) < w.VehicleLen {
			s.AVCollided = true
			res.AVCollision = true
			break
		}
	}
	if s.AV.State.Lon >= w.RoadLength {
		res.AVFinished = true
	}
	return res
}

// Time returns the simulated time in seconds.
func (s *Sim) Time() float64 { return float64(s.StepNum) * s.Cfg.World.Dt }
