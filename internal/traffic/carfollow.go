package traffic

import (
	"fmt"
	"math"
	"math/rand"
)

// CarFollowing selects the longitudinal driver model of conventional
// vehicles. The paper's related work names both model families: IDM
// (Treiber et al.) and Krauss (SUMO's default).
type CarFollowing int

// The implemented car-following models.
const (
	// IDM is the Intelligent Driver Model.
	IDM CarFollowing = iota
	// Krauss is the stochastic safe-velocity model of Krauß et al.,
	// SUMO's default car-following model.
	Krauss
)

// String implements fmt.Stringer.
func (c CarFollowing) String() string {
	switch c {
	case IDM:
		return "IDM"
	case Krauss:
		return "Krauss"
	default:
		return fmt.Sprintf("CarFollowing(%d)", int(c))
	}
}

// KraussParams extends DriverParams with the Krauss model's imperfection
// factor.
type KraussParams struct {
	// Sigma is the driver imperfection ("dawdling") factor in [0, 1]:
	// the probability-weighted random speed reduction each step that
	// produces Krauss's metastable jams.
	Sigma float64
}

// KraussAccel computes the Krauss safe-velocity acceleration for a driver
// with params p at velocity v, given the bumper gap and the leader's
// velocity (pass gap = +Inf with any vLead when there is no leader). The
// caller supplies dawdle ∈ [0, 1) (a uniform random draw) and the step
// length dt; the model is
//
//	vSafe = vLead + (gap − vLead·τ) / (v/b + τ)
//	vDes  = min(v + a·dt, vSafe, v0)
//	v'    = max(0, vDes − σ·a·dt·dawdle)
//
// returned as the equivalent acceleration (v' − v)/dt.
func KraussAccel(p DriverParams, k KraussParams, v, gap, vLead, dawdle, dt float64) float64 {
	tau := p.TimeHeadway
	var vSafe float64
	if math.IsInf(gap, 1) {
		vSafe = math.Inf(1)
	} else {
		g := math.Max(gap-p.MinGap, 0)
		vSafe = vLead + (g-vLead*tau)/(v/math.Max(p.ComfortDecel, 0.1)+tau)
	}
	vDes := math.Min(math.Min(v+p.MaxAccel*dt, vSafe), p.DesiredV)
	vNext := math.Max(0, vDes-k.Sigma*p.MaxAccel*dt*dawdle)
	return (vNext - v) / dt
}

// followAccel dispatches to the simulation's configured car-following
// model for vehicle v driving in the given lane.
func (s *Sim) followAccel(v *Vehicle, lane int) float64 {
	if s.Cfg.CarFollowing != Krauss {
		return s.accelToward(v, lane)
	}
	leader := s.leader(lane, v.State.Lon, v)
	gap, vLead := math.Inf(1), 0.0
	if leader != nil {
		gap = leader.State.Lon - v.State.Lon - s.Cfg.World.VehicleLen
		vLead = leader.State.V
	}
	return KraussAccel(v.Params, s.Cfg.Krauss, v.State.V, gap, vLead, s.rng.Float64(), s.Cfg.World.Dt)
}

// FlowSample is one aggregate traffic-state measurement: the macroscopic
// fundamental-diagram quantities over a longitudinal window.
type FlowSample struct {
	// Density is vehicles per kilometer (all lanes combined).
	Density float64
	// MeanSpeed is the space-mean speed in m/s.
	MeanSpeed float64
	// Flow is vehicles per hour (density × speed), the fundamental
	// relation q = k·v.
	Flow float64
	// Vehicles is the raw count inside the window.
	Vehicles int
}

// MeasureFlow computes the macroscopic traffic state over the window
// [from, to) meters. Use it to observe jam formation (the "domino
// effect" congestion the paper's introduction motivates).
func (s *Sim) MeasureFlow(from, to float64) FlowSample {
	if to <= from {
		return FlowSample{}
	}
	count := 0
	sumV := 0.0
	for _, v := range s.Vehicles {
		if v.State.Lon >= from && v.State.Lon < to {
			count++
			sumV += v.State.V
		}
	}
	out := FlowSample{Vehicles: count}
	km := (to - from) / 1000
	out.Density = float64(count) / km
	if count > 0 {
		out.MeanSpeed = sumV / float64(count)
	}
	out.Flow = out.Density * out.MeanSpeed * 3.6 // veh/km · m/s → veh/h
	return out
}

// SpeedVariance returns the variance of conventional-vehicle speeds inside
// the window — a stop-and-go wave indicator.
func (s *Sim) SpeedVariance(from, to float64) float64 {
	var vs []float64
	for _, v := range s.Vehicles {
		if v.State.Lon >= from && v.State.Lon < to {
			vs = append(vs, v.State.V)
		}
	}
	if len(vs) < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	sum := 0.0
	for _, v := range vs {
		sum += (v - mean) * (v - mean)
	}
	return sum / float64(len(vs))
}

// SampleKraussParams draws a Krauss imperfection factor consistent with
// SUMO's defaults (σ = 0.5 ± spread).
func SampleKraussParams(rng *rand.Rand) KraussParams {
	return KraussParams{Sigma: 0.3 + 0.4*rng.Float64()}
}
