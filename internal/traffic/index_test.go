package traffic

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"head/internal/world"
)

// The ref* functions are the full scans over vehicleAt order that the lane
// index replaced. They are the brute-force reference the index must agree
// with, pointer for pointer and bit for bit.

func refLeader(s *Sim, lane int, lon float64, exclude *Vehicle) *Vehicle {
	var best *Vehicle
	for i := 0; i <= len(s.Vehicles); i++ {
		v := s.vehicleAt(i)
		if v == exclude || v.State.Lat != lane || v.State.Lon <= lon {
			continue
		}
		if best == nil || v.State.Lon < best.State.Lon {
			best = v
		}
	}
	return best
}

func refFollower(s *Sim, lane int, lon float64, exclude *Vehicle) *Vehicle {
	var best *Vehicle
	for i := 0; i <= len(s.Vehicles); i++ {
		v := s.vehicleAt(i)
		if v == exclude || v.State.Lat != lane || v.State.Lon >= lon {
			continue
		}
		if best == nil || v.State.Lon > best.State.Lon {
			best = v
		}
	}
	return best
}

func refSlotTaken(s *Sim, v *Vehicle, lane int) bool {
	for i := 0; i <= len(s.Vehicles); i++ {
		o := s.vehicleAt(i)
		if o == v || o.State.Lat != lane {
			continue
		}
		if math.Abs(o.State.Lon-v.State.Lon) < s.Cfg.World.VehicleLen+1 {
			return true
		}
	}
	return false
}

func refAccelToward(s *Sim, v *Vehicle, lane int) float64 {
	leader := refLeader(s, lane, v.State.Lon, v)
	gap, dv := math.Inf(1), 0.0
	if leader != nil {
		gap = leader.State.Lon - v.State.Lon - s.Cfg.World.VehicleLen
		dv = v.State.V - leader.State.V
	}
	return IDMAccel(v.Params, v.State.V, gap, dv)
}

func refLaneChangeOK(s *Sim, v *Vehicle, target int) bool {
	if target < 1 || target > s.Cfg.World.Lanes {
		return false
	}
	w := s.Cfg.World
	if refSlotTaken(s, v, target) {
		return false
	}
	newFollower := refFollower(s, target, v.State.Lon, v)
	if newFollower != nil {
		gap := v.State.Lon - newFollower.State.Lon - w.VehicleLen
		dv := newFollower.State.V - v.State.V
		aAfter := IDMAccel(newFollower.Params, newFollower.State.V, gap, dv)
		if aAfter < -v.Params.SafeDecel {
			return false
		}
	}
	aOld := refAccelToward(s, v, v.State.Lat)
	aNew := refAccelToward(s, v, target)
	gain := aNew - aOld
	if newFollower != nil {
		gapB := v.State.Lon - newFollower.State.Lon - w.VehicleLen
		dvB := newFollower.State.V - v.State.V
		aFollowerAfter := IDMAccel(newFollower.Params, newFollower.State.V, gapB, dvB)
		aFollowerBefore := refAccelToward(s, newFollower, target)
		gain += v.Params.Politeness * (aFollowerAfter - aFollowerBefore)
	}
	oldFollower := refFollower(s, v.State.Lat, v.State.Lon, v)
	if oldFollower != nil {
		aOldFollowerBefore := refAccelToward(s, oldFollower, v.State.Lat)
		leader := refLeader(s, v.State.Lat, v.State.Lon, v)
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

// randomScene builds a simulation and then edits it the way callers do
// between steps: positions snapped to a 3 m grid so vehicles tie exactly
// and sit exactly VehicleLen+1 (6 m) apart, the slot check's boundary,
// copies of existing vehicles at the same lane and position, vehicles
// appended out of order (some off the road or on the lanes beyond its
// edges), and the AV moved, sometimes onto a conventional vehicle.
func randomScene(t *testing.T, rng *rand.Rand) *Sim {
	t.Helper()
	cfg := testConfig()
	cfg.Density = 20 + 180*rng.Float64()
	s, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	mutateScene(s, rng)
	return s
}

func mutateScene(s *Sim, rng *rand.Rand) {
	w := s.Cfg.World
	for _, v := range s.Vehicles {
		if rng.Intn(2) == 0 {
			v.State.Lon = 3 * math.Round(v.State.Lon/3)
		}
	}
	for k := rng.Intn(12); k > 0; k-- {
		v := &Vehicle{
			ID:       s.nextID,
			State:    world.State{Lat: 1 + rng.Intn(w.Lanes), Lon: 3 * math.Round(rng.Float64()*w.RoadLength/3), V: w.VMax * rng.Float64()},
			Params:   SampleDriverParams(w, rng),
			ExitStep: -1,
		}
		s.nextID++
		switch rng.Intn(4) {
		case 0: // an exact copy of an existing vehicle's slot
			if len(s.Vehicles) > 0 {
				o := s.Vehicles[rng.Intn(len(s.Vehicles))]
				v.State.Lat, v.State.Lon = o.State.Lat, o.State.Lon
			}
		case 1: // off the road, before its start or past its end
			v.State.Lon = -50 + (w.RoadLength+100)*rng.Float64()
			if rng.Intn(4) == 0 {
				v.State.Lat = []int{-1, 0, w.Lanes + 1, w.Lanes + 2}[rng.Intn(4)]
			}
		}
		s.Vehicles = append(s.Vehicles, v)
	}
	switch rng.Intn(3) {
	case 0: // onto a conventional vehicle's position
		if len(s.Vehicles) > 0 {
			o := s.Vehicles[rng.Intn(len(s.Vehicles))]
			s.AV.State.Lat, s.AV.State.Lon = o.State.Lat, o.State.Lon
		}
	case 1:
		s.AV.State = world.State{Lat: 1 + rng.Intn(w.Lanes), Lon: w.RoadLength * rng.Float64(), V: w.VMax * rng.Float64()}
	}
}

// checkAgainstScan compares every exported neighbor query with the
// reference scans, around every vehicle and on both neighboring lanes
// (lanes 0 and Lanes+1 at the road edges).
func checkAgainstScan(t *testing.T, s *Sim, scene int) {
	t.Helper()
	for i := 0; i <= len(s.Vehicles); i++ {
		v := s.vehicleAt(i)
		st := v.State
		for lane := st.Lat - 1; lane <= st.Lat+1; lane++ {
			// Offsets of ±1 m put the query just outside v's tie group,
			// so excluding v leaves the rest of the group to choose from.
			for _, lon := range []float64{st.Lon - 1, st.Lon, st.Lon + 1} {
				for _, exclude := range []*Vehicle{v, nil, s.AV} {
					if got, want := s.Leader(lane, lon, exclude), refLeader(s, lane, lon, exclude); got != want {
						t.Fatalf("scene %d: Leader(%d, %g) excluding %p = %p, scan %p", scene, lane, lon, exclude, got, want)
					}
					if got, want := s.Follower(lane, lon, exclude), refFollower(s, lane, lon, exclude); got != want {
						t.Fatalf("scene %d: Follower(%d, %g) excluding %p = %p, scan %p", scene, lane, lon, exclude, got, want)
					}
				}
			}
			if got, want := s.AccelToward(v, lane), refAccelToward(s, v, lane); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("scene %d: AccelToward(vehicle %d, %d) = %v, scan %v", scene, v.ID, lane, got, want)
			}
			if got, want := s.LaneChangeOK(v, lane), refLaneChangeOK(s, v, lane); got != want {
				t.Fatalf("scene %d: LaneChangeOK(vehicle %d, %d) = %v, scan %v", scene, v.ID, lane, got, want)
			}
			// The MOBIL safety check rejects almost every taken slot on
			// its own, so the slot check is compared directly as well.
			s.reindex()
			if got, want := s.slotTaken(v, lane), refSlotTaken(s, v, lane); got != want {
				t.Fatalf("scene %d: slotTaken(vehicle %d, %d) = %v, scan %v", scene, v.ID, lane, got, want)
			}
		}
		want := Neighborhood{
			FrontLeft:  refLeader(s, st.Lat-1, st.Lon, v),
			Front:      refLeader(s, st.Lat, st.Lon, v),
			FrontRight: refLeader(s, st.Lat+1, st.Lon, v),
			RearLeft:   refFollower(s, st.Lat-1, st.Lon, v),
			Rear:       refFollower(s, st.Lat, st.Lon, v),
			RearRight:  refFollower(s, st.Lat+1, st.Lon, v),
		}
		if got := s.NeighborsOf(v); got != want {
			t.Fatalf("scene %d: NeighborsOf(vehicle %d) = %+v, scan %+v", scene, v.ID, got, want)
		}
	}
}

// TestIndexMatchesScan is the lane index's property test: on random scenes
// full of exact ties, unsorted vehicles and a displaced AV, every query
// answers exactly what the full scan answered, and it keeps doing so after
// the scene is edited again without a step and after a step.
func TestIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for scene := 0; scene < 30; scene++ {
		s := randomScene(t, rng)
		checkAgainstScan(t, s, scene)
		mutateScene(s, rng)
		checkAgainstScan(t, s, scene)
		s.Step(world.Maneuver{B: world.LaneKeep, A: 0})
		checkAgainstScan(t, s, scene)
	}
}

// TestIndexTieBreak pins the tie-break contract on a hand-built tie group:
// Vehicles order decides, the AV ranks after conventional vehicles, and an
// excluded member hands the answer to the next one.
func TestIndexTieBreak(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, rand.New(rand.NewSource(42)))
	add := func(lon float64) *Vehicle {
		v := &Vehicle{State: world.State{Lat: 2, Lon: lon, V: 10}, ExitStep: -1}
		s.Vehicles = append(s.Vehicles, v)
		return v
	}
	s.Vehicles = nil
	back := add(100)
	a := add(200)
	b := add(200)
	s.AV.State = world.State{Lat: 2, Lon: 200, V: 10}
	front := add(300)
	cases := []struct {
		name      string
		got, want *Vehicle
	}{
		{"leader takes the first of the group", s.Leader(2, 150, nil), a},
		{"leader skips the excluded first member", s.Leader(2, 150, a), b},
		{"follower takes the first of the group", s.Follower(2, 250, nil), a},
		{"follower skips the excluded first member", s.Follower(2, 250, a), b},
		{"leader from inside the group", s.Leader(2, 200, b), front},
		{"follower from inside the group", s.Follower(2, 200, b), back},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %p, want %p", c.name, c.got, c.want)
		}
	}
	s.Vehicles = []*Vehicle{back, front}
	if got := s.Follower(2, 250, nil); got != s.AV {
		t.Errorf("follower with the AV alone at 200: got %p, want the AV", got)
	}
	if got := s.Follower(2, 250, s.AV); got != back {
		t.Errorf("follower whose only nearest vehicle is excluded: got %p, want the next group down", got)
	}
}

// TestStepAllocatesNothing holds the index storage to New: from the first
// call on, stepping a scene whose vehicles change lanes allocates nothing.
func TestStepAllocatesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Density = 150
	s, err := New(cfg, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		s.Step(world.Maneuver{B: world.LaneKeep, A: 0})
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("100 steps allocated %d times, want 0", n)
	}
}
