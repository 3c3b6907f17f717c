// Command dhlload is the deterministic load generator for the control
// plane (DESIGN.md §11): it replays thousands of concurrent clients —
// with the retry, backoff, and budget behaviour of internal/cpclient —
// against the server's admission machinery (internal/admit) fronting a
// real simulated deployment, all on a virtual clock. The same flags and
// seed always produce a byte-identical report, so overload behaviour
// (shed rates, brownout, goodput under 4× saturation) is regression-
// testable and CI byte-compares two runs.
//
// Modes:
//
//	-mode closed   N clients cycle open → ops×IO → close with think time
//	               (load tracks completions, the classic closed loop)
//	-mode open     Poisson arrivals of IO requests at -rate/s against a
//	               pre-opened fleet; no retries — offered load is the
//	               independent variable
//
// A -chaos scenario (see internal/faults) composes fault injection into
// the same run. -live ADDR switches to a wall-clock driver hammering a
// real dhlserve over TCP instead of the virtual harness; client i drives
// cart i, so -carts must match the server's -carts and cover -clients.
//
// Examples:
//
//	dhlload -clients 1000 -duration 300 -think 0.5
//	dhlload -mode open -rate 200 -duration 120 -chaos rush-hour
//	dhlload -clients 64 -duration 60 -bench-out BENCH_controlplane.json
//	dhlload -live 127.0.0.1:7070 -carts 2 -clients 2 -duration 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/admit"
	"repro/internal/cpclient"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dhlload: ")
	var (
		mode     = flag.String("mode", "closed", "load shape: closed or open")
		clients  = flag.Int("clients", 100, "concurrent clients (closed) / connections (open)")
		duration = flag.Float64("duration", 120, "virtual seconds of offered load (wall seconds with -live)")
		seed     = flag.Int64("seed", 1, "master seed: same seed, same report, byte for byte")
		think    = flag.Float64("think", 1, "closed-loop think time between cycles, seconds")
		ops      = flag.Int("ops", 4, "IO ops per open/close cycle")
		readFrac = flag.Float64("read", 0.5, "fraction of IO ops that are reads")
		bytes    = flag.Float64("bytes", 1e9, "bytes per IO op")
		rate     = flag.Float64("rate", 50, "open-loop aggregate arrival rate, requests/s")
		carts    = flag.Int("carts", 0, "fleet size (0: one per client closed, 8 open; with -live it must match the server's -carts)")
		chaos    = flag.String("chaos", "", "compose a fault scenario (see dhlsim -chaos list)")
		statusEv = flag.Float64("status-every", 0.5, "control-probe period, virtual seconds (0 disables)")
		reqTO    = flag.Float64("timeout", 10, "queued-request abandon timeout, virtual seconds")

		maxQueue  = flag.Int("max-queue", 64, "admission: bounded waiting room")
		admitRate = flag.Float64("admit-rate", 0, "admission: token-bucket rate limit, req/s (0 off)")
		perConn   = flag.Int("per-conn", 0, "admission: outstanding-request cap per connection (0 off)")

		benchOut = flag.String("bench-out", "", "write the result as benchmark JSON to this file")
		jsonOut  = flag.Bool("json", false, "print the result as JSON instead of the text report")
		live     = flag.String("live", "", "drive a real server at this TCP address (wall clock)")
	)
	flag.Parse()

	if *live != "" {
		res, err := runLive(*live, *clients, *carts, time.Duration(*duration*float64(time.Second)),
			*ops, *bytes, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Report())
		return
	}

	cfg := Config{
		Mode:           *mode,
		Clients:        *clients,
		Duration:       *duration,
		Seed:           *seed,
		Think:          *think,
		Ops:            *ops,
		ReadFrac:       *readFrac,
		Bytes:          *bytes,
		Rate:           *rate,
		Carts:          *carts,
		Chaos:          *chaos,
		StatusEvery:    *statusEv,
		RequestTimeout: *reqTO,
		Admission: admit.Options{
			MaxQueue: *maxQueue,
			Rate:     *admitRate,
			PerConn:  *perConn,
		},
		Retry: cpclient.RetryOptions{Seed: *seed},
	}
	h, err := newHarness(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(res.Report())
	}
	if *benchOut != "" {
		if err := writeBench(*benchOut, res); err != nil {
			log.Fatal(err)
		}
	}
}

// benchJSON is the stable schema of BENCH_controlplane.json, consumed by
// CI trend tracking. Field order and formatting are fixed; two identical
// runs produce identical bytes.
type benchJSON struct {
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	Clients     int     `json:"clients"`
	DurationS   float64 `json:"duration_s"`
	Seed        int64   `json:"seed"`
	Chaos       string  `json:"chaos,omitempty"`
	P50S        float64 `json:"p50_s"`
	P90S        float64 `json:"p90_s"`
	P99S        float64 `json:"p99_s"`
	OfferedRPS  float64 `json:"offered_rps"`
	GoodputRPS  float64 `json:"goodput_rps"`
	Utilization float64 `json:"utilization"`
	ShedBusy    int     `json:"shed_busy"`
	Retries     int     `json:"retries"`
	CtlStale    int     `json:"ctl_stale"`
	OK          int     `json:"ok"`
	Failed      int     `json:"failed"`
}

func writeBench(path string, r *Result) error {
	b := benchJSON{
		Name:        "controlplane-load",
		Mode:        r.Config.Mode,
		Clients:     r.Config.Clients,
		DurationS:   r.Config.Duration,
		Seed:        r.Config.Seed,
		Chaos:       r.Config.Chaos,
		P50S:        r.P50S,
		P90S:        r.P90S,
		P99S:        r.P99S,
		OfferedRPS:  r.OfferedRPS,
		GoodputRPS:  r.GoodputRPS,
		Utilization: r.Utilization,
		ShedBusy:    r.ShedBusy,
		Retries:     r.Retries,
		CtlStale:    r.CtlStale,
		OK:          r.OK,
		Failed:      r.Failed,
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
