// Package control simulates the DHL's active lateral stabilisation
// (§III-B.2, §IV-A.2): Earnshaw's theorem makes a passively levitated cart
// laterally unstable, so each rail segment carries a sensor array and
// correcting electromagnets. The paper notes that "it is only necessary to
// actively control the cart when it deviates from the equilibrium point"
// and that properly tuned arrays need "negligible force", so stabilisation
// power is minimal — this package makes that claim checkable.
//
// The model is a sampled PD controller on the lateral displacement of a
// point-mass cart with destabilising magnetic stiffness:
//
//	m·ẍ = k_u·x − F_act,   F_act = clamp(k_p·x̂ + k_d·v̂, ±F_max)
//
// where x̂, v̂ are zero-order-held sensor samples. Electrical actuator power
// is modelled as F²/κ (coil resistive loss, κ the actuator constant).
package control

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// Plant is the lateral cart dynamics.
type Plant struct {
	// Mass of the cart.
	Mass units.Grams
	// UnstableStiffness k_u in N/m: the destabilising magnetic gradient.
	UnstableStiffness float64
}

// Controller is a sampled PD regulator with actuator saturation.
type Controller struct {
	// KP and KD are the proportional (N/m) and derivative (N·s/m) gains.
	KP, KD float64
	// SampleRate of the rail's sensor array, Hz.
	SampleRate float64
	// MaxForce of the correcting electromagnets, N.
	MaxForce float64
	// ActuatorConstant κ in N²/W: electrical power = F²/κ.
	ActuatorConstant float64
}

// DefaultPlant is the 282 g default cart over a rail with a mild
// destabilising gradient.
func DefaultPlant() Plant {
	return Plant{Mass: 282, UnstableStiffness: 50}
}

// DefaultController is tuned for the default plant: critically-damped-ish
// gains sampled at 1 kHz, 20 N actuators.
func DefaultController() Controller {
	return Controller{KP: 400, KD: 6, SampleRate: 1000, MaxForce: 20, ActuatorConstant: 50}
}

// Result summarises a stabilisation run.
type Result struct {
	// Settled reports whether |x| stayed below the settle band for the
	// final 10 % of the run.
	Settled bool
	// SettlingTime is when |x| last exceeded the settle band (0 if never).
	SettlingTime units.Seconds
	// MaxDeviation is the peak |x| over the run, metres.
	MaxDeviation float64
	// AveragePower is the mean electrical actuator power, watts.
	AveragePower units.Watts
	// PeakForce is the largest actuator force commanded, newtons.
	PeakForce float64
}

// Options configures a run. The cart starts at rest (ẋ(0) = 0) and the
// integrator steps at one tenth of the controller's sample period.
type Options struct {
	// InitialOffset x(0), metres (e.g. a 1 mm rail joint bump).
	InitialOffset float64
	// Duration of the simulation.
	Duration units.Seconds
	// SettleBand: |x| below this counts as settled, metres.
	SettleBand float64
}

// DefaultOptions is a 1 mm perturbation watched for one second with a
// 0.1 mm settle band.
func DefaultOptions() Options {
	return Options{InitialOffset: 1e-3, Duration: 1, SettleBand: 1e-4}
}

// Errors returned by Simulate.
var (
	ErrBadPlant      = errors.New("control: plant mass and stiffness must be positive")
	ErrBadController = errors.New("control: controller gains, rate and limits must be positive")
)

// Simulate runs the sampled control loop (semi-implicit Euler integration)
// and reports the outcome.
func Simulate(p Plant, c Controller, o Options) (Result, error) {
	if p.Mass <= 0 || p.UnstableStiffness <= 0 {
		return Result{}, ErrBadPlant
	}
	if c.KP <= 0 || c.KD < 0 || c.SampleRate <= 0 || c.MaxForce <= 0 || c.ActuatorConstant <= 0 {
		return Result{}, ErrBadController
	}
	if o.Duration <= 0 {
		return Result{}, fmt.Errorf("control: duration must be positive, got %v", o.Duration)
	}
	if o.SettleBand <= 0 {
		return Result{}, errors.New("control: settle band must be positive")
	}
	dt := 1 / (10 * c.SampleRate)
	m := p.Mass.Kg()
	x, v := o.InitialOffset, 0.0
	samplePeriod := 1 / c.SampleRate
	nextSample := 0.0
	var heldX, heldV float64
	var res Result
	var energy float64
	steps := int(math.Ceil(float64(o.Duration) / dt))
	for i := 0; i < steps; i++ {
		t := float64(i) * dt
		if t >= nextSample {
			heldX, heldV = x, v
			nextSample += samplePeriod
		}
		f := c.KP*heldX + c.KD*heldV
		if f > c.MaxForce {
			f = c.MaxForce
		} else if f < -c.MaxForce {
			f = -c.MaxForce
		}
		a := (p.UnstableStiffness*x - f) / m
		v += a * dt
		x += v * dt
		if math.Abs(x) > res.MaxDeviation {
			res.MaxDeviation = math.Abs(x)
		}
		if math.Abs(x) > o.SettleBand {
			res.SettlingTime = units.Seconds(t)
		}
		if math.Abs(f) > res.PeakForce {
			res.PeakForce = math.Abs(f)
		}
		energy += f * f / c.ActuatorConstant * dt
		if math.IsNaN(x) || math.Abs(x) > 1 {
			// Diverged (hit the tube wall).
			res.Settled = false
			res.AveragePower = units.Watts(energy / (t + dt))
			return res, nil
		}
	}
	res.AveragePower = units.Watts(energy / float64(o.Duration))
	res.Settled = float64(res.SettlingTime) <= 0.9*float64(o.Duration)
	return res, nil
}

// StabilisationPowerPerCart runs the default scenario and returns the
// average power — the quantity the paper argues is negligible next to the
// tens-of-kW launch power.
func StabilisationPowerPerCart() (units.Watts, error) {
	r, err := Simulate(DefaultPlant(), DefaultController(), DefaultOptions())
	if err != nil {
		return 0, err
	}
	if !r.Settled {
		return 0, errors.New("control: default configuration failed to settle")
	}
	return r.AveragePower, nil
}
