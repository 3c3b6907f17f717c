// Package track models the physical DHL plant of §III-B as guarded state
// machines: the rail(s) between the library and an endpoint, the endpoint's
// bank of vertically-stacked docking stations, and the library's storage
// slots. The event-driven system simulation (internal/dhlsys) drives these
// resources; they enforce the paper's structural rules — one cart in transit
// per rail direction, one cart per docking station, and no shuttling past a
// station while a cart is mid-dock.
package track

import (
	"errors"
	"fmt"

	"repro/internal/telemetry"
)

// CartID identifies a cart within a DHL deployment.
type CartID int

// NoCart is the absent-cart sentinel.
const NoCart CartID = -1

// Direction of travel on the DHL.
type Direction int

const (
	// Outbound: library → endpoint.
	Outbound Direction = iota
	// Inbound: endpoint → library.
	Inbound
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Outbound {
		return "outbound"
	}
	return "inbound"
}

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction {
	if d == Outbound {
		return Inbound
	}
	return Outbound
}

// RailMode selects the §VI track design alternatives.
type RailMode int

const (
	// SingleRail is the paper's primary design: one bidirectional rail with
	// LIMs at each end.
	SingleRail RailMode = iota
	// DualRail is the §VI alternative: one outbound and one inbound rail,
	// enabling simultaneous shuttling in both directions.
	DualRail
)

// String implements fmt.Stringer.
func (m RailMode) String() string {
	if m == SingleRail {
		return "single-rail"
	}
	return "dual-rail"
}

// Errors returned by resource operations.
var (
	ErrRailBusy      = errors.New("track: rail occupied")
	ErrRailBlocked   = errors.New("track: rail direction blocked by a fault")
	ErrRailIdle      = errors.New("track: rail not occupied by that cart")
	ErrDockFull      = errors.New("track: all docking stations occupied")
	ErrDockBlocked   = errors.New("track: a cart is mid-dock, rail blocked")
	ErrNotDocked     = errors.New("track: cart not docked here")
	ErrStationFailed = errors.New("track: docking station out of service")
	ErrBadStation    = errors.New("track: no such docking station")
	ErrLibraryFull   = errors.New("track: library has no free slot")
	ErrNotInLibrary  = errors.New("track: cart not stored in library")
	ErrDuplicate     = errors.New("track: cart already present")
)

// Rail is the transit resource. In SingleRail mode both directions share one
// reservation; in DualRail mode each direction has its own. A rail
// direction can additionally be blocked by a fault (derailed cart, debris
// on the segment): blocked directions refuse new reservations until
// unblocked, independent of occupancy.
type Rail struct {
	Mode     RailMode
	occupant [2]CartID // per direction; SingleRail uses index 0 only
	blocked  [2]int    // active blockage count per direction slot

	// Telemetry counters (nil by default — uninstrumented rails pay only
	// nil checks).
	telReservations *telemetry.Counter
	telBlocks       *telemetry.Counter
}

// NewRail builds an empty rail.
func NewRail(mode RailMode) *Rail {
	return &Rail{Mode: mode, occupant: [2]CartID{NoCart, NoCart}}
}

// Instrument attaches plant-level counters to the rail:
// dhl_rail_reservations_total (successful Reserve calls) and
// dhl_rail_blocks_total (fault blockages). A nil registry is a no-op.
func (r *Rail) Instrument(reg *telemetry.Registry) {
	r.telReservations = reg.Counter("dhl_rail_reservations_total")
	r.telBlocks = reg.Counter("dhl_rail_blocks_total")
}

func (r *Rail) slot(d Direction) *CartID {
	if r.Mode == SingleRail {
		return &r.occupant[0]
	}
	return &r.occupant[int(d)]
}

func (r *Rail) blockSlot(d Direction) *int {
	if r.Mode == SingleRail {
		return &r.blocked[0]
	}
	return &r.blocked[int(d)]
}

// Block marks direction d out of service (fault injection). Blockages
// nest: each Block needs a matching Unblock. On a single rail, blocking
// either direction blocks the whole rail — there is only one track.
func (r *Rail) Block(d Direction) {
	*r.blockSlot(d)++
	r.telBlocks.Inc()
}

// Unblock clears one blockage on direction d.
func (r *Rail) Unblock(d Direction) {
	if s := r.blockSlot(d); *s > 0 {
		*s--
	}
}

// Blocked reports whether direction d is out of service.
func (r *Rail) Blocked(d Direction) bool { return *r.blockSlot(d) > 0 }

// Reserve claims the rail for a cart travelling in direction d. Blocked
// directions cannot be reserved.
func (r *Rail) Reserve(id CartID, d Direction) error {
	if r.Blocked(d) {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: %v rail blocked by a fault", ErrRailBlocked, d)
	}
	s := r.slot(d)
	if *s != NoCart {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: cart %d holds the %v rail", ErrRailBusy, *s, d)
	}
	*s = id
	r.telReservations.Inc()
	return nil
}

// Release frees the rail after cart id completes its transit.
func (r *Rail) Release(id CartID, d Direction) error {
	s := r.slot(d)
	if *s != id {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: cart %d (holder %d)", ErrRailIdle, id, *s)
	}
	*s = NoCart
	return nil
}

// Free reports whether direction d can be reserved.
func (r *Rail) Free(d Direction) bool { return *r.slot(d) == NoCart && !r.Blocked(d) }

// Occupant returns the cart holding direction d, or NoCart.
func (r *Rail) Occupant(d Direction) CartID { return *r.slot(d) }

// DockBank is the endpoint's set of vertically-stacked docking stations
// (§III-B.5). While a cart is in the middle of docking or undocking, the
// rail past the bank is blocked ("it is not possible to shuttle another cart
// past the cart being docked").
type DockBank struct {
	stations []CartID
	// failed marks stations out of service (connector damage, fault
	// injection); a failed station accepts no new docks until repaired.
	failed []bool
	// midDock is the cart currently transitioning (docking or undocking),
	// blocking the rail through the bank; NoCart when clear.
	midDock CartID

	// Telemetry counters (nil by default).
	telDocks    *telemetry.Counter
	telUndocks  *telemetry.Counter
	telFailures *telemetry.Counter
	telRepairs  *telemetry.Counter
}

// NewDockBank builds a bank of n empty stations.
func NewDockBank(n int) (*DockBank, error) {
	if n < 1 {
		return nil, errors.New("track: dock bank needs ≥1 station")
	}
	s := make([]CartID, n)
	for i := range s {
		s[i] = NoCart
	}
	return &DockBank{stations: s, failed: make([]bool, n), midDock: NoCart}, nil
}

// Instrument attaches plant-level counters to the bank:
// dhl_dock_docks_total / dhl_dock_undocks_total (completed operations) and
// dhl_dock_station_failures_total / dhl_dock_station_repairs_total (fault
// injection). A nil registry is a no-op.
func (b *DockBank) Instrument(reg *telemetry.Registry) {
	b.telDocks = reg.Counter("dhl_dock_docks_total")
	b.telUndocks = reg.Counter("dhl_dock_undocks_total")
	b.telFailures = reg.Counter("dhl_dock_station_failures_total")
	b.telRepairs = reg.Counter("dhl_dock_station_repairs_total")
}

// Stations returns the number of docking stations.
func (b *DockBank) Stations() int { return len(b.stations) }

// HasFree reports whether at least one in-service station is unoccupied —
// the hot-path form of FreeStations() > 0, exiting at the first free slot
// instead of counting the whole bank on every queue retry.
func (b *DockBank) HasFree() bool {
	for i, s := range b.stations {
		if s == NoCart && !b.failed[i] {
			return true
		}
	}
	return false
}

// FreeStations returns how many in-service stations are unoccupied.
func (b *DockBank) FreeStations() int {
	n := 0
	for i, s := range b.stations {
		if s == NoCart && !b.failed[i] {
			n++
		}
	}
	return n
}

// FailStation takes station i out of service (fault injection). An
// occupant, if any, remains docked — it can still undock, but the station
// accepts no new carts until RepairStation. The occupant (or NoCart) is
// returned so the caller can flag its connector for service.
func (b *DockBank) FailStation(i int) (CartID, error) {
	if i < 0 || i >= len(b.stations) {
		return NoCart, fmt.Errorf("%w: %d of %d", ErrBadStation, i, len(b.stations))
	}
	b.failed[i] = true
	b.telFailures.Inc()
	return b.stations[i], nil
}

// RepairStation returns station i to service.
func (b *DockBank) RepairStation(i int) error {
	if i < 0 || i >= len(b.stations) {
		return fmt.Errorf("%w: %d of %d", ErrBadStation, i, len(b.stations))
	}
	b.failed[i] = false
	b.telRepairs.Inc()
	return nil
}

// FailedStations returns how many stations are out of service.
func (b *DockBank) FailedStations() int {
	n := 0
	for _, f := range b.failed {
		if f {
			n++
		}
	}
	return n
}

// Blocked reports whether a mid-dock cart is blocking through traffic.
func (b *DockBank) Blocked() bool { return b.midDock != NoCart }

// BeginDock starts docking cart id into a free station. The station index is
// returned; the rail through the bank is blocked until EndDock.
func (b *DockBank) BeginDock(id CartID) (int, error) {
	if b.midDock != NoCart {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return 0, fmt.Errorf("%w: cart %d mid-dock", ErrDockBlocked, b.midDock)
	}
	for _, s := range b.stations {
		if s == id {
			//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
			return 0, fmt.Errorf("%w: cart %d", ErrDuplicate, id)
		}
	}
	for i, s := range b.stations {
		if s == NoCart && !b.failed[i] {
			b.stations[i] = id
			b.midDock = id
			return i, nil
		}
	}
	if b.FailedStations() > 0 {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return 0, fmt.Errorf("%w: %d in-service stations occupied, %d failed",
			ErrDockFull, len(b.stations)-b.FailedStations(), b.FailedStations())
	}
	return 0, ErrDockFull
}

// EndDock completes the docking of cart id, unblocking the rail.
func (b *DockBank) EndDock(id CartID) error {
	if b.midDock != id {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: cart %d (mid-dock %d)", ErrNotDocked, id, b.midDock)
	}
	b.midDock = NoCart
	b.telDocks.Inc()
	return nil
}

// BeginUndock starts ejecting cart id from its station; the rail is blocked
// until EndUndock.
func (b *DockBank) BeginUndock(id CartID) error {
	if b.midDock != NoCart {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: cart %d mid-dock", ErrDockBlocked, b.midDock)
	}
	for _, s := range b.stations {
		if s == id {
			b.midDock = id
			return nil
		}
	}
	//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
	return fmt.Errorf("%w: cart %d", ErrNotDocked, id)
}

// EndUndock completes the ejection, freeing the station and the rail.
func (b *DockBank) EndUndock(id CartID) error {
	if b.midDock != id {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: cart %d (mid-dock %d)", ErrNotDocked, id, b.midDock)
	}
	for i, s := range b.stations {
		if s == id {
			b.stations[i] = NoCart
			b.midDock = NoCart
			b.telUndocks.Inc()
			return nil
		}
	}
	//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
	return fmt.Errorf("%w: cart %d vanished mid-undock", ErrNotDocked, id)
}

// Docked reports whether cart id is fully docked (present and not mid-dock).
func (b *DockBank) Docked(id CartID) bool {
	if b.midDock == id {
		return false
	}
	for _, s := range b.stations {
		if s == id {
			return true
		}
	}
	return false
}

// Occupants returns the carts currently in stations (including mid-dock).
func (b *DockBank) Occupants() []CartID {
	var out []CartID
	for _, s := range b.stations {
		if s != NoCart {
			out = append(out, s)
		}
	}
	return out
}

// Library is the cold-storage endpoint (§III-B.6): docking stations that
// lift carts off the main track, not connected to servers.
type Library struct {
	slots map[CartID]bool
	cap   int // 0 = unbounded
}

// NewLibrary builds a library with the given slot capacity (0 = unbounded,
// matching the paper's "easy expansion" property).
func NewLibrary(capacity int) *Library {
	return &Library{slots: make(map[CartID]bool), cap: capacity}
}

// Store parks a cart in the library.
func (l *Library) Store(id CartID) error {
	if l.slots[id] {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: cart %d", ErrDuplicate, id)
	}
	if l.cap > 0 && len(l.slots) >= l.cap {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: %d slots", ErrLibraryFull, l.cap)
	}
	//dhllint:allow allocflow -- bounded occupancy set: the fleet's cart IDs cycle through existing buckets after warm-up
	l.slots[id] = true
	return nil
}

// Remove takes a cart out of the library for launch.
func (l *Library) Remove(id CartID) error {
	if !l.slots[id] {
		//dhllint:allow allocflow -- state-machine guard: error returns fire on contract violations, never on the steady launch loop
		return fmt.Errorf("%w: cart %d", ErrNotInLibrary, id)
	}
	delete(l.slots, id)
	return nil
}

// Holds reports whether the cart is parked here.
func (l *Library) Holds(id CartID) bool { return l.slots[id] }

// Count returns the number of stored carts.
func (l *Library) Count() int { return len(l.slots) }
