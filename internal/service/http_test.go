package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"securadio/internal/fleet"
)

// TestHTTPJobLifecycle drives a campaign job end to end over the HTTP
// API: submit, stream the SSE events to the terminal one, fetch the
// report by job and by content address, and check the stored bytes
// against the direct run — the same byte-identity the CI smoke job
// checks against the one-shot CLI.
func TestHTTPJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, StoreDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A blocker occupies the single lane so the real job stays pending
	// until its event stream is attached — otherwise a fast job could
	// finish before the SSE client connects and the stream would only
	// carry the terminal event.
	bresp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"campaign":{"scenario":"fame-jam","runs":1000000,"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var blocker JobStatus
	json.NewDecoder(bresp.Body).Decode(&blocker)
	bresp.Body.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"campaign":{"scenario":"fame-jam","runs":8,"seed":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, st.ID)
	}

	// Attach the stream while the job is still pending, then release the
	// lane and read to the terminal event.
	type sseResult struct {
		counts map[string]int
		end    JobStatus
	}
	streamed := make(chan sseResult, 1)
	ready := make(chan struct{})
	go func() {
		counts, end := readSSE(t, ts.URL+"/jobs/"+st.ID+"/events", ready)
		streamed <- sseResult{counts, end}
	}()
	<-ready

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	var events map[string]int
	var endStatus JobStatus
	select {
	case res := <-streamed:
		events, endStatus = res.counts, res.end
	case <-time.After(60 * time.Second):
		t.Fatal("stream never ended")
	}
	if events["run"] != 8 {
		t.Fatalf("run events = %d, want 8", events["run"])
	}
	if events["end"] != 1 {
		t.Fatalf("end events = %d, want 1", events["end"])
	}
	if endStatus.State != StateDone || endStatus.ReportSHA == "" {
		t.Fatalf("terminal status = %+v", endStatus)
	}

	report := getBody(t, ts.URL+"/jobs/"+st.ID+"/report", http.StatusOK)
	blob := getBody(t, ts.URL+"/reports/"+endStatus.ReportSHA, http.StatusOK)
	if !bytes.Equal(report, blob) {
		t.Fatal("job report and content-addressed blob differ")
	}
	agg, err := fleet.Run(context.Background(), fleet.Campaign{Scenario: mustScenario(t, "fame-jam"), Runs: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := encodeReport(agg)
	if !bytes.Equal(report, want) {
		t.Fatal("HTTP report differs from direct fleet.Run output")
	}

	// The listing carries both jobs in admission order: the cancelled
	// blocker, then the finished job.
	var list []JobStatus
	if err := json.Unmarshal(getBody(t, ts.URL+"/jobs", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != blocker.ID || list[1].ID != st.ID || list[1].State != StateDone {
		t.Fatalf("listing = %+v", list)
	}
}

// readSSE consumes one SSE stream to its natural end, returning the
// per-type event counts and the decoded terminal status. A non-nil
// ready channel is closed once the stream is attached (the handler
// subscribes before it sends the response headers, so receiving them
// means no further event can be missed).
func readSSE(t *testing.T, url string, ready chan<- struct{}) (map[string]int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	if ready != nil {
		close(ready)
	}

	counts := make(map[string]int)
	var endStatus JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
			counts[typ]++
		case strings.HasPrefix(line, "data: "):
			if typ == "end" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &endStatus); err != nil {
					t.Fatalf("end payload: %v", err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return counts, endStatus
}

func getBody(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d (%s), want %d", url, resp.StatusCode, body, wantCode)
	}
	return body
}

// TestHTTPErrors pins the error-to-status mapping of the API surface.
func TestHTTPErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"campaign":{"scenario":"no-such-scenario"}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown scenario = %d, want 400", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", code)
	}
	if code := post(`{"campaign":{"scenario":"fame-jam"},"surprise":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", code)
	}

	getBody(t, ts.URL+"/jobs/job-000042", http.StatusNotFound)
	getBody(t, ts.URL+"/jobs/job-000042/events", http.StatusNotFound)
	getBody(t, ts.URL+"/jobs/job-000042/report", http.StatusNotFound)
	getBody(t, ts.URL+"/reports/not-a-sha", http.StatusBadRequest)
	getBody(t, ts.URL+"/reports/"+strings.Repeat("0", 64), http.StatusBadRequest)

	// A finished job refuses DELETE with 409.
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"campaign":{"scenario":"fame-clear","runs":1,"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	waitState(t, s, st.ID, StateDone)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal job = %d, want 409", dresp.StatusCode)
	}
}

// TestHTTPCancelRunning cancels a running job over HTTP and watches its
// stream end with a cancelled terminal event.
func TestHTTPCancelRunning(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"campaign":{"scenario":"fame-jam","runs":1000000,"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	waitState(t, s, st.ID, StateRunning)

	type sseResult struct {
		counts map[string]int
		end    JobStatus
	}
	streamed := make(chan sseResult, 1)
	go func() {
		counts, end := readSSE(t, ts.URL+"/jobs/"+st.ID+"/events", nil)
		streamed <- sseResult{counts, end}
	}()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job = %d, want 200", dresp.StatusCode)
	}

	select {
	case res := <-streamed:
		if res.counts["end"] != 1 || res.end.State != StateCancelled {
			t.Fatalf("cancelled stream: counts=%v end=%+v", res.counts, res.end)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end after cancellation")
	}
	getBody(t, ts.URL+"/jobs/"+st.ID+"/report", http.StatusBadRequest)
}

// TestHTTPHealthz pins the liveness payload, including the draining
// transition.
func TestHTTPHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var health struct {
		Status  string `json:"status"`
		Jobs    int    `json:"jobs"`
		Running int    `json:"running"`
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/healthz", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Jobs != 0 {
		t.Fatalf("healthz = %+v", health)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/healthz", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("healthz after drain = %+v, want draining", health)
	}
}

// TestFinishedJobsRetainLittleHeap pins job retirement: a daemon keeps
// every job it ran, so what a finished job retains bounds its memory over
// a long life. 2,000 jobs go through Handler() — submit, stream to the
// end event — and the heap that survives GC must grow by less than 1 KiB
// per finished job.
func TestFinishedJobsRetainLittleHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2,000 jobs")
	}
	const jobs, budget = 2000, 1024
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"campaign":{"scenario":"tiny","runs":1,"seed":3},` +
		`"catalog":{"scenarios":[{"name":"tiny","proto":"fame","n":20,"c":2,"t":1,"pairs":1,"adversary":"none"}]}}`
	run := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
			}
			events, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, events.Body) // the stream closes after "end"
			events.Body.Close()
			if final, err := s.Status(st.ID); err != nil || final.State != StateDone {
				t.Fatalf("job %s: %+v, %v", st.ID, final, err)
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(50) // warm pools, connections and the report store
	before := heap()
	run(jobs)
	after := heap()
	per := (int64(after) - int64(before)) / jobs
	t.Logf("retained heap: %d B per finished job", per)
	if per >= budget {
		t.Fatalf("finished jobs retain %d B of heap each, want < %d", per, budget)
	}
}

// TestSubmitBodyBound pins the POST /jobs body bound: a body over 1 MiB
// is refused with a JSON 413, whether the excess sits inside the job
// object or after it, where the trailing-data check reads it.
func TestSubmitBodyBound(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pad := strings.Repeat(" ", maxSubmission)
	for name, body := range map[string]string{
		"inside":   `{"tenant":"` + strings.Repeat("x", maxSubmission) + `"}`,
		"trailing": `{"campaign":{"scenario":"fame-clear","runs":1}}` + pad,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || e["error"] == "" {
			t.Fatalf("%s: status %d, body %v (%v); want a JSON 413", name, resp.StatusCode, e, derr)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("an oversized submission was admitted: %+v", jobs)
	}
}
