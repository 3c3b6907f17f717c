package dhlsys

import (
	"fmt"
	"strconv"

	"repro/internal/faults"
	"repro/internal/physics"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// This file applies the fault taxonomy (internal/faults) to the running
// plant and implements the degraded-mode physics the recovery policies rely
// on. Faults arrive on the event loop in deterministic order; every handler
// mutates only simulation state, so a fixed script replays byte-identically.

// faultTarget adapts System to faults.Target without exporting the
// mutation entry points.
type faultTarget struct{ s *System }

// Inject implements faults.Target.
func (t faultTarget) Inject(f faults.Fault) { t.s.injectFault(f) }

// Recover implements faults.Target.
func (t faultTarget) Recover(f faults.Fault) { t.s.recoverFault(f) }

// injectFault strikes one fault against the plant.
func (s *System) injectFault(f faults.Fault) {
	switch f.Kind {
	case faults.SSDFailure:
		c, ok := s.carts[f.Cart]
		if !ok || f.Device < 0 || f.Device >= len(c.Array.Devices) {
			return
		}
		if !c.Array.Devices[f.Device].Failed() {
			c.Array.Devices[f.Device].Fail()
			s.stats.FailuresSeen++
		}
	case faults.CartStall:
		if f.Cart == track.NoCart {
			// Debris on the segment: the direction refuses new
			// reservations until cleared, and any cart mid-transit that
			// way is delayed by the clearing time.
			s.rail.Block(f.Direction)
			if occ := s.rail.Occupant(f.Direction); occ != track.NoCart {
				s.stallCart(s.carts[occ], f.Duration)
			}
			return
		}
		// A specific cart stalls: its arrival slips by the clearing time.
		// The rail reservation it already holds keeps the segment closed
		// to followers, so no extra blocking is needed.
		s.stallCart(s.carts[f.Cart], f.Duration)
	case faults.VacuumLeak:
		s.leaks = append(s.leaks, f.Pressure)
	case faults.DockFailure:
		occ, err := s.dock.FailStation(f.Station)
		if err != nil {
			return
		}
		if occ != track.NoCart {
			// The occupant's connector mated with a now-failed station;
			// flag it for forced service at the library.
			s.needsService[occ] = true
		}
	case faults.LIMPowerLoss:
		s.limDown[int(f.Direction)]++
	}
}

// recoverFault repairs one fault's outage.
func (s *System) recoverFault(f faults.Fault) {
	switch f.Kind {
	case faults.SSDFailure:
		// Scripted SSD faults with a repair window restore the device;
		// window-less ones stay dead until library service.
		if c, ok := s.carts[f.Cart]; ok && f.Device >= 0 && f.Device < len(c.Array.Devices) {
			if c.Array.Devices[f.Device].Failed() {
				c.Array.Devices[f.Device].Repair()
			}
		}
	case faults.CartStall:
		if f.Cart == track.NoCart {
			s.rail.Unblock(f.Direction)
		}
	case faults.VacuumLeak:
		for i, p := range s.leaks {
			//dhllint:allow floateq -- removing the exact value this fault's injection appended
			if p == f.Pressure {
				s.leaks = append(s.leaks[:i], s.leaks[i+1:]...)
				break
			}
		}
	case faults.DockFailure:
		if err := s.dock.RepairStation(f.Station); err != nil {
			return
		}
	case faults.LIMPowerLoss:
		if s.limDown[int(f.Direction)] > 0 {
			s.limDown[int(f.Direction)]--
		}
	}
	// Any repair may unblock queued Open/Close requests.
	s.retryWaiting()
}

// limUp reports whether the LIM serving launch direction d is energised.
func (s *System) limUp(d track.Direction) bool { return s.limDown[int(d)] == 0 }

// effectiveTube is the tube at the worst currently-open leak pressure (or
// nominal with no leaks open).
func (s *System) effectiveTube() physics.Tube {
	t := s.tube
	for _, p := range s.leaks {
		if p > t.Pressure {
			t.Pressure = p
		}
	}
	return t
}

// launchDynamics is one launch's physics, possibly degraded by a vacuum
// leak: cruise capped so drag stays within the recovery policy's margin of
// LIM thrust (internal/physics.DegradedCruiseSpeed).
type launchDynamics struct {
	transit  units.Seconds
	energy   units.Joules
	degraded bool
	// ramp is the time to accelerate from rest to cruise speed (= braking
	// time), used by telemetry to decompose the transit span into
	// accel/cruise/brake phases.
	ramp units.Seconds
}

// dynamics computes the current launch physics. With no leak open the
// launch charges exactly the analytical model's time and energy — the paper
// neglects drag at nominal rough vacuum (§IV-B), and the simulation must
// agree with the closed form. While a vacuum leak is open, that assumption
// breaks: cruise speed is capped by the drag margin at the leak pressure.
func (s *System) dynamics() launchDynamics {
	cfg := s.opt.Core
	base := launchDynamics{
		transit: s.transitTime(),
		energy:  s.launch.Energy,
		ramp:    units.Seconds(float64(cfg.MaxSpeed) / float64(cfg.Acceleration)),
	}
	if len(s.leaks) == 0 {
		return base
	}
	v := physics.DegradedCruiseSpeed(s.effectiveTube(), cfg.Cart.TotalMass,
		cfg.Acceleration, cfg.MaxSpeed, s.opt.Recovery.VacuumMargin)
	if v >= cfg.MaxSpeed {
		return base
	}
	p, err := physics.NewProfile(cfg.Length, v, cfg.Acceleration)
	if err != nil {
		// Unreachable for v < MaxSpeed (the ramp only shrinks), but fail
		// safe to nominal physics rather than panic mid-simulation.
		return base
	}
	d := launchDynamics{
		transit:  p.TransitTime(cfg.TimeModel),
		energy:   cfg.LIM.LaunchEnergy(cfg.Cart.TotalMass, v),
		degraded: true,
		ramp:     units.Seconds(float64(v) / float64(cfg.Acceleration)),
	}
	if d.transit < base.transit {
		d.transit = base.transit
	}
	return d
}

// scheduleTransit schedules a cart's rail transit with stall bookkeeping:
// the pending event, its callback, and the held direction are recorded on
// the cart so a CartStall fault can push the arrival out. fn is one of the
// cart's pre-bound arrival steps (scratch.go) and must clear
// c.transitEv/c.transitFn itself on entry — keeping the wrapper out of
// this path makes a transit allocation-free.
func (s *System) scheduleTransit(c *Cart, d units.Seconds, name string, dir track.Direction, fn func()) {
	c.transitFn = fn
	c.transitName = name
	c.transitDir = dir
	c.transitEv = s.Engine.MustAfter(d, name, fn)
}

// stallCart pushes a mid-transit cart's arrival out by delay. Carts not on
// the rail are unaffected (a stall needs a moving cart).
func (s *System) stallCart(c *Cart, delay units.Seconds) {
	if c == nil || delay <= 0 {
		return
	}
	t, ok := s.Engine.EventTime(c.transitEv)
	if !ok {
		return
	}
	t += delay
	if !s.Engine.Cancel(c.transitEv) {
		return
	}
	ev, err := s.Engine.At(t, c.transitName, c.transitFn)
	if err != nil {
		panic(fmt.Sprintf("dhlsys: rescheduling stalled transit: %v", err))
	}
	c.transitEv = ev
	s.stats.Stalls++
	s.stats.StallTime += delay
	s.tel.stalls.Inc()
	s.tel.spans.RecordInstant(c.trackID, s.tel.ids.stall, s.Engine.Now(),
		telemetry.KV{Key: "delay_s", Value: strconv.FormatFloat(float64(delay), 'g', -1, 64)})
}

// FaultLog returns the run's fault event log in simulation-time order —
// the byte-identity artefact chaos replays compare.
func (s *System) FaultLog() []string { return s.inj.LogLines() }

// AvailabilityReport summarises a run's health: the outage-union downtime,
// the availability fraction, and goodput-relevant degraded counters.
type AvailabilityReport struct {
	// Elapsed simulation time the report covers.
	Elapsed units.Seconds
	// Downtime is the union of all fault outage windows (overlaps counted
	// once, instantaneous SSD deaths excluded).
	Downtime units.Seconds
	// Availability = 1 − Downtime/Elapsed (1 for an empty run).
	Availability float64
	// Faults injected, total and per kind.
	Faults faults.Summary
	// Stats snapshot at report time.
	Stats Stats
}

// String renders the report as stable lines.
func (r AvailabilityReport) String() string {
	return fmt.Sprintf("elapsed=%.3fs downtime=%.3fs availability=%.6f faults=[%v]",
		float64(r.Elapsed), float64(r.Downtime), r.Availability, r.Faults)
}

// Report builds the availability report at the engine's current time.
func (s *System) Report() AvailabilityReport {
	elapsed := s.Engine.Now()
	down := s.inj.Downtime()
	avail := 1.0
	if elapsed > 0 {
		avail = 1 - float64(down)/float64(elapsed)
	}
	return AvailabilityReport{
		Elapsed:      elapsed,
		Downtime:     down,
		Availability: avail,
		Faults:       s.inj.Summary(),
		Stats:        s.stats,
	}
}
