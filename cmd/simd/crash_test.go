package main

// The crash-recovery harness: the test binary re-execs ITSELF as the
// simd service (TestMain short-circuits into run() when the marker env
// var is set), SIGKILLs it mid-campaign at randomized moments, restarts
// it against the same -store directory and asserts the recovered
// service finishes the campaign with zero recomputation of journaled
// points and a results document byte-identical to an uninterrupted run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

const (
	crashServiceEnv = "SIMD_CRASH_SERVICE"
	crashArgsEnv    = "SIMD_CRASH_ARGS"
)

// TestMain turns the test binary into the service when re-exec'd by the
// crash harness; otherwise the tests run normally.
func TestMain(m *testing.M) {
	if os.Getenv(crashServiceEnv) == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv(crashArgsEnv)), &args); err != nil {
			fmt.Fprintf(os.Stderr, "crash child: bad args: %v\n", err)
			os.Exit(2)
		}
		os.Exit(run(args))
	}
	os.Exit(m.Run())
}

// The jittered chaos workload, registered in this binary so both the
// parent's in-process baseline and the re-exec'd service share it:
// scheduling jitter and deferred bridge exchanges perturb every shard
// step, while the outcome stays deterministic (dates and checksums
// only — no interleaving-dependent counters), so byte-identity holds
// even for sharded points.
func init() {
	scenario.Register(scenario.Model{
		Name: "chaos-jitter",
		Keys: []string{"stages", "words", "depth", "shards", "seed"},
		Run: func(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
			r := scenario.NewReader(p)
			w := chaos.Workload{
				Stages: r.Int("stages", 3),
				Words:  r.Int("words", 64),
				Depth:  r.Int("depth", 4),
				Shards: r.Int("shards", 1),
				Seed:   r.Int64("seed", 1),
			}
			if err := r.Err(); err != nil {
				return scenario.Outcome{}, err
			}
			b, fp := w.Build()
			defer b.Shutdown()
			if b.Coord != nil {
				b.Coord.SetHooks(chaos.Plan{
					Seed:           w.Seed,
					JitterMax:      200 * time.Microsecond,
					FlushDeferProb: 0.2,
				}.Hooks())
			}
			if err := b.RunGuarded(ctx, sim.RunForever); err != nil {
				return scenario.Outcome{}, err
			}
			return scenario.Outcome{
				SimEndNS:  int64(b.Kernels[0].Now() / sim.NS),
				DatesHash: fmt.Sprintf("%016x", fp()),
			}, nil
		},
	})
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// service is one re-exec'd simd child process.
type service struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
}

// startService re-execs the test binary as simd on port against storeDir
// and waits until /healthz answers.
func startService(t *testing.T, port int, storeDir string) *service {
	t.Helper()
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-store", storeDir,
		"-workers", "2",
		"-check-every", "4",
		"-drain", "2s",
	}
	js, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashServiceEnv+"=1", crashArgsEnv+"="+string(js))
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &service{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), stderr: &stderr}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("service never became healthy; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill SIGKILLs the child — no drain, no cleanup, a real crash.
func (s *service) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// pollStatus fetches a campaign's status, failing on transport errors.
func pollStatus(t *testing.T, s *service, id string) campaign.Status {
	t.Helper()
	code, body := get(t, s.url+"/campaigns/"+id)
	if code != http.StatusOK {
		t.Fatalf("status %s: %d %s\nchild stderr:\n%s", id, code, body, s.stderr.String())
	}
	var st campaign.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// metricValue scans a Prometheus exposition for an unlabelled counter.
func metricValue(t *testing.T, expo []byte, family string) uint64 {
	t.Helper()
	for _, line := range strings.Split(string(expo), "\n") {
		if strings.HasPrefix(line, family+" ") {
			v, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, family+" ")), 10, 64)
			if err != nil {
				t.Fatalf("parsing %s from %q: %v", family, line, err)
			}
			return v
		}
	}
	t.Fatalf("family %s missing from exposition", family)
	return 0
}

// baseline runs the spec in-process with the same execution options the
// child uses and returns the canonical JSON and CSV documents.
func baseline(t *testing.T, spec string) (jsonDoc, csvDoc []byte) {
	t.Helper()
	set, err := scenario.ParseSet([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(context.Background(), set, campaign.Options{
		Workers: 2, CheckEvery: 4, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var jbuf, cbuf bytes.Buffer
	if err := res.JSON(&jbuf, false); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&cbuf, false); err != nil {
		t.Fatal(err)
	}
	return jbuf.Bytes(), cbuf.Bytes()
}

// crashCycle drives the shared harness: submit spec to a fresh service,
// SIGKILL/restart it `kills` times at randomized moments (the last kill
// waits for visible progress first, so the final recovery always has
// journaled points to reuse), then assert the final document matches the
// uninterrupted baseline byte for byte and that every journaled point
// was served from the recovered cache.
func crashCycle(t *testing.T, spec string, kills int) {
	dir := t.TempDir()
	port := freePort(t)
	wantJSON, wantCSV := baseline(t, spec)

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	s := startService(t, port, dir)
	alive := true
	t.Cleanup(func() {
		if alive {
			s.kill()
		}
	})

	code, body := post(t, s.url+"/campaigns", spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID

	for k := 0; k < kills; k++ {
		if k == kills-1 {
			// Before the last kill, wait for progress so the final
			// restart demonstrably reuses journaled work.
			deadline := time.Now().Add(30 * time.Second)
			for pollStatus(t, s, id).Done < 2 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(60 * time.Millisecond) // let the group commit land
		} else {
			time.Sleep(time.Duration(10+rng.Intn(120)) * time.Millisecond)
		}
		s.kill()
		s = startService(t, port, dir) // some restarts die mid-resume
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		st := pollStatus(t, s, id)
		if st.State == campaign.JobDone {
			if !st.Resumed {
				t.Errorf("final status does not carry resumed: %+v", st)
			}
			break
		}
		if st.State != campaign.JobRunning || time.Now().After(deadline) {
			t.Fatalf("campaign state %s after restarts: %+v\nchild stderr:\n%s", st.State, st, s.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// GET /campaigns marks the recovered campaign resumed.
	if _, body := get(t, s.url+"/campaigns"); !strings.Contains(string(body), `"resumed": true`) {
		t.Errorf("campaign list misses resumed flag: %s", body)
	}

	// Byte-identical documents, both formats.
	if code, gotJSON := get(t, s.url+"/campaigns/"+id+"/results"); code != http.StatusOK {
		t.Fatalf("results: %d %s", code, gotJSON)
	} else if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("recovered JSON differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", wantJSON, gotJSON)
	}
	if code, gotCSV := get(t, s.url+"/campaigns/"+id+"/results?format=csv"); code != http.StatusOK {
		t.Fatalf("csv results: %d", code)
	} else if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("recovered CSV differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", wantCSV, gotCSV)
	}

	// Zero recomputation: every point recovered from the journal at boot
	// was served as a cache hit, never re-executed — and the last kill
	// guaranteed there were some.
	_, expo := get(t, s.url+"/metrics")
	recovered := metricValue(t, expo, "store_recovered_points_total")
	hits := metricValue(t, expo, "campaign_cache_hits_total")
	if recovered == 0 {
		t.Error("final restart recovered 0 journaled points; the harness lost its progress guarantee")
	}
	if hits != recovered {
		t.Errorf("cache hits (%d) != recovered points (%d): journaled work was recomputed or double-counted", hits, recovered)
	}

	// The per-point provenance agrees with the metrics: with ?wall=1 the
	// journal-served points carry Cached.
	_, wallBody := get(t, s.url+"/campaigns/"+id+"/results?wall=1")
	var wallDoc campaign.Results
	if err := json.Unmarshal(wallBody, &wallDoc); err != nil {
		t.Fatal(err)
	}
	var cached uint64
	for _, p := range wallDoc.Points {
		if p.Cached && !p.Dedup {
			cached++
		}
	}
	if cached != recovered {
		t.Errorf("%d points marked cached, %d recovered from journal", cached, recovered)
	}

	s.kill()
	alive = false
}

// TestCrashRecovery is the tentpole acceptance test: a deterministic
// pipeline sweep, killed and restarted repeatedly (including mid-resume),
// must finish with byte-identical output and zero recomputation.
func TestCrashRecovery(t *testing.T) {
	crashCycle(t, `{
		"name": "crash",
		"model": "pipeline",
		"params": {"blocks": 6, "words_per_block": 300},
		"matrix": {"depth": [1, 2, 3, 4, 5, 6]}
	}`, 3)
}

// TestTombstoneAnswers410: a campaign cancelled before a restart is
// recovered as a settled tombstone — listed, not resumed, its results
// gone for good.
func TestTombstoneAnswers410(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(scenario.Set{Specs: []scenario.Spec{
		{Model: "kpn", Params: scenario.Params{"tokens": 4}},
	}})
	st.JobSubmitted("c1", "doomed", 1, 1, spec)
	st.JobCancelled("c1")
	st.Close()

	st2, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.NewEngine(campaign.Options{Workers: 2, Store: st2})
	if _, err := eng.Recover(rec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, nil))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		st2.Close()
	})

	code, body := get(t, ts.URL+"/campaigns/c1")
	if code != http.StatusOK || !strings.Contains(string(body), `"cancelled"`) {
		t.Fatalf("tombstone status: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/campaigns/c1/results"); code != http.StatusGone {
		t.Errorf("tombstone results: %d %s, want 410", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/c1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE tombstone: %d, want 409", resp.StatusCode)
	}
}

// TestCrashSoakChaosJitter combines the chaos layer's scheduling jitter
// (sharded points, perturbed shard steps, deferred exchanges) with
// mid-run SIGKILL — the cross-layer soak. Run under -race in CI.
func TestCrashSoakChaosJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short")
	}
	crashCycle(t, `{
		"name": "soak",
		"model": "chaos-jitter",
		"params": {"words": 96, "depth": 4},
		"matrix": {"shards": [1, 2], "seed": [1, 2, 3]}
	}`, 2)
}
