// Serve example: run the DSE sweep service end to end in one process —
// start the HTTP server on a local port, POST a tiny sweep spec, consume
// the NDJSON result stream, then read the sweep's final status and the
// server's health metrics. The same flow works against a long-lived
// `gemini-serve` deployment; see docs/http-api.md for the full API.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"gemini/internal/dse"
	"gemini/internal/serve"
)

func main() {
	// A real deployment runs `gemini-serve`; here the server lives in
	// process on an ephemeral port.
	srv := serve.New(serve.Config{DataDir: "serve-example-data", Logf: log.Printf})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// A two-candidate sweep over the tiny test CNN: cheap enough to watch
	// stream in real time. Re-running this example resumes from the
	// checkpoint under serve-example-data/ and recomputes nothing.
	spec := dse.Spec{
		ID: "example-sweep",
		Space: dse.SpaceSpec{
			TOPS: 72, Cuts: []int{1}, DRAMPerTOPS: []float64{2},
			NoCBWs: []float64{32, 64}, D2DRatios: []float64{0.5},
			GLBsKB: []int{1024}, MACs: []int{1024},
		},
		Models:       []string{"tinycnn"},
		SAIterations: 100,
		Prune:        true,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST /sweep: %s", resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			log.Fatal(err)
		}
		switch ev.Type {
		case "start":
			fmt.Printf("sweep %s: %d candidates x %v (%d cells, %d already checkpointed)\n",
				ev.SweepID, ev.Candidates, ev.Models, ev.Cells, ev.CheckpointCells)
		case "result":
			r := ev.Result
			if r.Status == "ok" {
				fmt.Printf("  [%d] %-44s obj=%.4g E=%.3gJ D=%.3gs\n", ev.Seq, r.Arch, r.Objective, r.EnergyJ, r.DelayS)
			} else {
				fmt.Printf("  [%d] %-44s %s\n", ev.Seq, r.Arch, r.Status)
			}
		case "done":
			fmt.Printf("done in %dms: best %s (obj=%.4g), %d/%d cells resumed, %d candidates pruned\n",
				ev.ElapsedMS, ev.Best.Arch, ev.Best.Objective,
				ev.Stats.ResumedCells, ev.Stats.Cells, ev.Stats.PrunedCandidates)
		case "error":
			log.Fatalf("sweep failed: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// The status and health endpoints serve monitoring dashboards.
	st, err := http.Get(base + "/sweeps/example-sweep")
	if err != nil {
		log.Fatal(err)
	}
	defer st.Body.Close()
	var status serve.SweepStatus
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("status: %s (%d/%d candidates)\n",
		status.State, status.DoneCandidates, status.Candidates)

	h, err := http.Get(base + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	defer h.Body.Close()
	var health serve.Health
	if err := json.NewDecoder(h.Body).Decode(&health); err != nil {
		log.Fatal(err)
	}
	for _, ses := range health.Sessions {
		fmt.Printf("session %d: %d cache hits / %d misses, %d checkpoint cells\n",
			ses.Index, ses.CacheHits, ses.CacheMisses, ses.CheckpointCells)
	}
}
