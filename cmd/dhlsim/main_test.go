package main

import (
	"errors"
	"testing"

	"repro/internal/faults"
)

func TestChaosScenarioListMatchesFaults(t *testing.T) {
	names := faults.ScenarioNames()
	if len(chaosScenarios) != len(names) {
		t.Fatalf("chaosScenarios has %d entries, faults.ScenarioNames %d — keep them in lockstep",
			len(chaosScenarios), len(names))
	}
	for i, s := range chaosScenarios {
		if s.name != names[i] {
			t.Errorf("chaosScenarios[%d] = %q, want %q", i, s.name, names[i])
		}
		if s.desc == "" {
			t.Errorf("scenario %q has no description", s.name)
		}
	}
}

func TestUnknownChaosMessageGolden(t *testing.T) {
	_, err := faults.ScenarioDims("typhoon", 1, 100, faults.Dims{Carts: 2, Stations: 4, DevicesPerCart: 16})
	if !errors.Is(err, faults.ErrUnknownScenario) {
		t.Fatalf("err = %v, want ErrUnknownScenario", err)
	}
	got := unknownChaosMessage(err)
	want := `faults: unknown scenario: "typhoon" (known: [ssd-storm leaky-tube blocked-track brownout rough-day campus-partition])
valid -chaos scenarios:
  ssd-storm         a burst of in-flight SSD deaths
  leaky-tube        repeated vacuum leaks of varying severity
  blocked-track     cart stalls and debris on the rail
  brownout          LIM power losses and dock-station failures
  rough-day         all of the above at once, at lower per-kind rates
  campus-partition  junction and tube-segment failures carving a campus apart (-campus only)
replay any scenario byte-identically with -chaos NAME -seed N`
	if got != want {
		t.Errorf("usage message drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
