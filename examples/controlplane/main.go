// Control plane: run the §III-D software API over the standard network — a
// TCP server wrapping a simulated DHL deployment, driven by internal/cpclient
// the way a rack's storage-management daemon would (the paper suggests
// integration with suites like NVIDIA Magnum IO).
package main

import (
	"fmt"
	"log"

	"repro/internal/controlplane"
	"repro/internal/cpclient"
	"repro/internal/dhlsys"
	"repro/internal/units"
)

func main() {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	srv, err := controlplane.NewServer(sys)
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("DHL control plane listening on %s\n\n", addr)

	c := cpclient.New(cpclient.Options{Addr: addr})
	defer c.Close()

	step := func(what string, r controlplane.Response, err error) {
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		if !r.OK {
			log.Fatalf("%s: API error: %s", what, r.Error)
		}
		fmt.Printf("%-28s sim-time %8.1f s (op took %6.1f s)\n", what, r.SimTime, r.OpSeconds)
	}

	// The four paper commands, §III-D.
	r, err := c.Open(0)
	step("Open(cart 0)", r, err)
	r, err = c.Write(0, float64(100*units.TB))
	step("Write(cart 0, 100 TB)", r, err)
	r, err = c.Read(0, float64(100*units.TB))
	step("Read(cart 0, 100 TB)", r, err)
	r, err = c.CloseCart(0)
	step("Close(cart 0)", r, err)

	// Errors are reported through the API, not hidden (§III-D).
	bad, err := c.Read(0, float64(units.GB))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRead at library correctly rejected: %q\n", bad.Error)

	st, err := c.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDeployment: %d launches, %d dock ops, %.1f kJ, %s read, %s written\n",
		st.Stats.Launches, st.Stats.DockOps, st.Stats.EnergyJ/1000,
		units.Bytes(st.Stats.BytesRead), units.Bytes(st.Stats.BytesWritten))
}
