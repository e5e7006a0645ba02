// Live pipeline: run the telemetry path end-to-end over real HTTP —
// the Conviva-style architecture of §3. The serving plane's ingest
// backend (internal/live, what cmd/vmpd runs) listens on localhost;
// publisher-side monitoring sensors batch and POST view records to it;
// the analysis layer then characterizes the management plane from what
// actually arrived on the wire.
//
//	go run ./examples/live-pipeline
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"vmp/internal/analytics"
	"vmp/internal/ecosystem"
	"vmp/internal/live"
	"vmp/internal/telemetry"
)

func main() {
	// 1. Start the ingest backend on an ephemeral local port.
	engine := live.NewEngine(live.Config{})
	defer engine.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: live.NewServer(engine).Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	endpoint := fmt.Sprintf("http://%s/v1/views", ln.Addr())
	fmt.Println("backend listening at", endpoint)

	// 2. Generate one snapshot of views and report them through
	// per-publisher sensors, exactly as embedded monitoring libraries
	// would.
	eco := ecosystem.New(ecosystem.Config{SnapshotStride: 59})
	snap := eco.Schedule.Latest()
	sensors := map[string]*telemetry.Sensor{}
	reported := 0
	for _, rec := range eco.GenerateSnapshot(snap) {
		sensor := sensors[rec.Publisher]
		if sensor == nil {
			sensor = telemetry.NewSensor(endpoint, http.DefaultClient, 200)
			sensors[rec.Publisher] = sensor
		}
		if err := sensor.Report(rec); err != nil {
			log.Fatal(err)
		}
		reported++
	}
	for _, sensor := range sensors {
		if err := sensor.Flush(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("reported %d view records from %d publishers' sensors\n", reported, len(sensors))

	// 3. Cut an epoch and analyze what the backend actually stored.
	ds := engine.Snapshot().Dataset
	stored := 0.0
	for i := 0; i < ds.Len(); i++ {
		stored += ds.ViewHoursAt(i)
	}
	fmt.Printf("backend stored %d records (%.0f view-hours represented)\n\n", ds.Len(), stored)

	h := analytics.InstancesPerPublisherDataset(ds, snap, ds.ProtocolCol())
	fmt.Println("protocols per publisher (from wire-delivered records):")
	for i, n := range h.Counts {
		fmt.Printf("  %d protocol(s): %5.1f%% of publishers, %5.1f%% of view-hours\n",
			n, h.PubPct[i], h.VHPct[i])
	}

	fmt.Println("\nview-hour share by protocol:")
	lo, hi := ds.WindowBounds(snap)
	byProto := map[string]float64{}
	for _, sh := range analytics.ShareOverRows(ds, ds.ProtocolCol(), lo, hi, nil, false) {
		byProto[sh.Key] = sh.Pct
	}
	for _, p := range []string{"HLS", "DASH", "SmoothStreaming", "HDS"} {
		fmt.Printf("  %-16s %5.1f%%\n", p, byProto[p])
	}
}
