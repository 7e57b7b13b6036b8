package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServeDaemon launches a real `fleetsim serve` daemon (via the
// __fleetsim TestMain dispatch, so signals hit a live process) and
// returns its base URL once the listener is up.
func startServeDaemon(t *testing.T, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"__fleetsim", "serve", "-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(exe, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// The daemon announces its resolved listen address on stderr; keep
	// draining the pipe afterwards so the child never blocks on it.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon never announced its listen address")
		return nil, ""
	}
}

// postJob submits a campaign job and returns the decoded status.
func postJob(t *testing.T, base, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, payload)
	}
	var st map[string]any
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeReportByteIdenticalToOneShotCLI is the service acceptance
// criterion: a campaign submitted to the daemon must store exactly the
// bytes the one-shot `fleetsim run -format json` emits for the same
// scenario, runs and seed.
func TestServeReportByteIdenticalToOneShotCLI(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.json")
	if err := run(context.Background(), []string{
		"run", "-campaign", "fame-jam", "-runs", "12", "-seed", "5",
		"-format", "json", "-out", ref,
	}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	cmd, base := startServeDaemon(t, "-store", filepath.Join(dir, "reports"))
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	st := postJob(t, base, `{"campaign":{"scenario":"fame-jam","runs":12,"seed":5}}`)
	id, _ := st["id"].(string)
	if id == "" {
		t.Fatalf("submission status carries no id: %v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	var sha string
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var cur map[string]any
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if state, _ := cur["state"].(string); state == "done" {
			sha, _ = cur["report_sha256"].(string)
			break
		} else if state == "failed" || state == "cancelled" {
			t.Fatalf("job ended %s: %v", state, cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %v", cur)
		}
		time.Sleep(20 * time.Millisecond)
	}

	for _, url := range []string{base + "/jobs/" + id + "/report", base + "/reports/" + sha} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("daemon report differs from one-shot CLI output:\n--- daemon ---\n%s\n--- cli ---\n%s", got, want)
		}
	}

	// With no jobs running, SIGTERM drains immediately and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after drain: %v", err)
	}
}

// TestServeSIGTERMDrainsInFlightJob sends SIGTERM while a job streams:
// the drain must let the job finish every run, deliver the terminal
// "end" event to the subscriber, and exit 0.
func TestServeSIGTERMDrainsInFlightJob(t *testing.T) {
	cmd, base := startServeDaemon(t)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	const runs = 200
	st := postJob(t, base, fmt.Sprintf(`{"campaign":{"scenario":"fame-jam","runs":%d,"seed":5}}`, runs))
	id, _ := st["id"].(string)

	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// SIGTERM as soon as the stream proves the job is mid-flight (first
	// "run" event: at least one run done, the rest still to come).
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var (
		typ       string
		runEvents int
		signalled bool
		endStatus map[string]any
	)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			typ = strings.TrimPrefix(line, "event: ")
			if typ == "run" {
				runEvents++
				if !signalled {
					signalled = true
					if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
				}
			}
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && typ == "end" {
			if err := json.Unmarshal([]byte(data), &endStatus); err != nil {
				t.Fatalf("end payload: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil && !signalled {
		t.Fatalf("stream error before signal: %v", err)
	}
	if endStatus == nil {
		t.Fatal("stream ended without a terminal event")
	}
	if state, _ := endStatus["state"].(string); state != "done" {
		t.Fatalf("drained job ended %q, want done (status %v)", state, endStatus)
	}
	if done, _ := endStatus["runs_done"].(float64); int(done) != runs {
		t.Fatalf("drained job completed %v runs, want %d", done, runs)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM drain: %v", err)
	}
}

// TestRunSIGTERMReportsPartialAndExitsNonZero pins the one-shot CLI's
// signal contract: SIGTERM mid-campaign aborts at the next round
// boundary, the partial aggregate is still reported, and the exit code
// is non-zero.
func TestRunSIGTERMReportsPartialAndExitsNonZero(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "partial.json")
	cmd := exec.Command(exe, "__fleetsim", "run",
		"-campaign", "fame-jam", "-runs", "1000000", "-seed", "1",
		"-format", "json", "-out", out)
	stderr := new(bytes.Buffer)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Give the campaign a moment to complete some runs, then interrupt.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit after SIGTERM = %v (stderr %q), want code 1", err, stderr)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr carries no interruption banner: %q", stderr)
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var partial struct {
		Runs int `json:"runs"`
	}
	if err := json.Unmarshal(blob, &partial); err != nil {
		t.Fatalf("partial report is not valid JSON: %v\n%s", err, blob)
	}
	if partial.Runs <= 0 || partial.Runs >= 1000000 {
		t.Fatalf("partial report runs = %d, want 0 < runs < total", partial.Runs)
	}
}

// TestServeFlagValidation pins the serve-side flag rejections, including
// the explicit non-positive duration rule.
func TestServeFlagValidation(t *testing.T) {
	cases := [][]string{
		{"serve", "-drain-timeout", "0s"},
		{"serve", "-drain-timeout", "-5s"},
		{"serve", "-max-concurrent", "0"},
		{"serve", "-queue-limit", "-1"},
		{"serve", "surprise-arg"},
		{"serve", "-scenarios", "does-not-exist.json"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, new(bytes.Buffer)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestDurationFlagValidation pins the shared rule on run and sweep: an
// explicitly non-positive -timeout / -lease-timeout is rejected up
// front instead of silently selecting "no timeout" or a default.
func TestDurationFlagValidation(t *testing.T) {
	cases := [][]string{
		{"run", "-campaign", "fame-jam", "-timeout", "0s"},
		{"run", "-campaign", "fame-jam", "-timeout", "-2s"},
		{"sweep", "-base", "fame-clear", "-t", "0,1", "-timeout", "-1s"},
		{"sweep", "-base", "fame-clear", "-t", "0,1", "-lease-timeout", "0s"},
		{"sweep", "-base", "fame-clear", "-t", "0,1", "-lease-timeout", "-1m"},
	}
	for _, args := range cases {
		err := run(context.Background(), args, new(bytes.Buffer))
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), "positive duration") {
			t.Errorf("%v: error %q does not name the duration rule", args, err)
		}
	}
	// The defaults (flag unset) must keep working.
	if err := run(context.Background(), []string{
		"run", "-campaign", "fame-clear", "-runs", "1", "-format", "json", "-out",
		filepath.Join(t.TempDir(), "ok.json"),
	}, new(bytes.Buffer)); err != nil {
		t.Fatalf("default timeouts rejected: %v", err)
	}
}

// TestServeClosesStalledHeaderRead pins the slow-client bound: a client
// that opens a connection and never finishes its request headers is
// disconnected once readHeaderTimeout passes, instead of holding the
// connection forever.
func TestServeClosesStalledHeaderRead(t *testing.T) {
	defer func(prev time.Duration) { readHeaderTimeout = prev }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v; event streams must not be cut off", hs.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /jobs HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	_, err = io.ReadAll(conn) // returns once the server closes the connection
	if elapsed := time.Since(start); err != nil || elapsed > 4*time.Second {
		t.Fatalf("stalled header read not closed: after %v, err %v", elapsed, err)
	}
}
