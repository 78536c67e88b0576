// End-to-end preemption over HTTP: an interactive sweep arriving on a full
// 1-slot pool preempts a running batch sweep, which checkpoints, parks,
// resumes after the interactive sweep finishes, and completes having
// recomputed zero settled cells and streamed every candidate exactly once —
// same-named ones included.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"gemini/internal/dse"
)

func TestPreemptionResumesWithZeroRecompute(t *testing.T) {
	_, hs := newTestServer(t, Config{DataDir: t.TempDir(), WorkerSlots: 1})

	// Cuts 1x2 and 2x1 give two of the four candidates the same display
	// name; the cross-round result dedupe must still tell them apart.
	batch := tinySpec("bulk-sweep")
	batch.Space.Cuts = []int{1, 2}
	batch.Tenant = "bulk"
	batch.Priority = string(dse.PriorityBatch)
	batch.Workers = 1
	batch.SAIterations = 2000
	batch.Restarts = 6
	// Unpruned, every mapped cell anneals all its restarts to the end.
	batch.Prune = false

	resp := postSpec(t, hs.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch POST: %d", resp.StatusCode)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	next := func() Event {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("batch stream ended early: %v", sc.Err())
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad batch stream line %q: %v", sc.Text(), err)
		}
		return ev
	}
	if ev := next(); ev.Type != "start" {
		t.Fatalf("first batch event %q, want start (uncontended dispatch)", ev.Type)
	}
	// Let at least one candidate settle so the preemption has cells to
	// carry across.
	results := map[int]bool{}
	for {
		if ev := next(); ev.Type == "result" {
			results[ev.Seq] = true
			break
		}
	}

	// The interactive sweep arrives on a full pool: it must queue, preempt
	// the batch sweep, run, and finish first.
	interactive := tinySpec("dev-sweep")
	interactive.Tenant = "dev"
	interactive.Workers = 1
	type streamOut struct {
		events []Event
		err    error
	}
	devc := make(chan streamOut, 1)
	go func() {
		body, err := json.Marshal(interactive)
		if err != nil {
			devc <- streamOut{err: err}
			return
		}
		r, err := http.Post(hs.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			devc <- streamOut{err: err}
			return
		}
		defer r.Body.Close()
		var out streamOut
		dsc := bufio.NewScanner(r.Body)
		dsc.Buffer(make([]byte, 1<<20), 1<<20)
		for dsc.Scan() {
			var ev Event
			if err := json.Unmarshal(dsc.Bytes(), &ev); err != nil {
				out.err = err
				break
			}
			out.events = append(out.events, ev)
		}
		if out.err == nil {
			out.err = dsc.Err()
		}
		devc <- out
	}()

	// The batch stream must now show the preemption cycle, then finish.
	var preempted, resumed, done Event
	for done.Type == "" {
		switch ev := next(); ev.Type {
		case "preempted":
			if preempted.Type != "" {
				t.Fatal("batch sweep preempted twice")
			}
			preempted = ev
		case "resumed":
			resumed = ev
		case "done":
			done = ev
		case "result":
			if results[ev.Seq] {
				t.Errorf("result seq %d streamed twice", ev.Seq)
			}
			results[ev.Seq] = true
		default:
			t.Fatalf("unexpected batch event: %+v", ev)
		}
	}
	if len(results) != 4 {
		t.Errorf("streamed %d result events across the preemption, want one per candidate (4)", len(results))
	}
	if preempted.Type == "" || resumed.Type == "" {
		t.Fatalf("batch stream missing preemption cycle: preempted=%q resumed=%q", preempted.Type, resumed.Type)
	}
	if preempted.Tenant != "bulk" || preempted.Priority != "batch" {
		t.Errorf("preempted event identity = %s/%s", preempted.Tenant, preempted.Priority)
	}
	if preempted.CheckpointCells == 0 {
		t.Error("preempted with zero settled cells; the test meant to carry work across")
	}
	if resumed.CheckpointCells != preempted.CheckpointCells {
		t.Errorf("resumed with %d checkpoint cells, preempted with %d", resumed.CheckpointCells, preempted.CheckpointCells)
	}
	// The acceptance criterion: the resumed run restored every cell that
	// was settled at preemption time — zero recompute.
	if done.Stats == nil || done.Stats.ResumedCells != preempted.CheckpointCells {
		t.Errorf("final stats resumed %d cells, want the %d settled at preemption",
			done.Stats.ResumedCells, preempted.CheckpointCells)
	}
	// The work sums over rounds: the resumed round alone maps only the cells
	// unsettled at preemption, which cannot spend more than this, so the
	// cells settled before it must add theirs.
	if last := (done.Stats.Cells - preempted.CheckpointCells) * batch.SAIterations * batch.Restarts; done.Stats.SAIterations <= last {
		t.Errorf("final stats spent %d SA iterations, no more than the resumed round's %d", done.Stats.SAIterations, last)
	}

	dev := <-devc
	if dev.err != nil {
		t.Fatalf("interactive stream: %v", dev.err)
	}
	if len(dev.events) < 3 || dev.events[0].Type != "queued" || dev.events[1].Type != "start" {
		t.Fatalf("interactive stream should open queued then start: %+v", dev.events)
	}
	if last := dev.events[len(dev.events)-1]; last.Type != "done" {
		t.Errorf("interactive sweep ended with %q", last.Type)
	}

	// Status and health surface the cycle.
	st, _ := getStatus(t, hs.URL, "bulk-sweep")
	if st.Preemptions != 1 || st.Tenant != "bulk" || st.Priority != "batch" {
		t.Errorf("batch status: preemptions=%d tenant=%s priority=%s", st.Preemptions, st.Tenant, st.Priority)
	}
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Queue == nil || h.Queue.Preemptions != 1 || h.Queue.Resumes != 1 {
		t.Errorf("health queue = %+v, want 1 preemption and 1 resume", h.Queue)
	}
}
