// Command jobgate is the CI gate for the durable batch-job tier: it proves
// that a SIGKILL — not a drain, a kill — in the middle of a batch run costs
// at most one in-flight chunk per job and changes nothing about the answer.
//
// The gate builds the real weaksimd binary and drives it as a subprocess
// (an in-process server cannot be SIGKILLed) through three phases:
//
//   - reference: a daemon runs three jobs (distinct circuits, seeds,
//     tenants, priorities) to completion uninterrupted; their merged
//     counts are the ground truth;
//   - kill: a fresh daemon on a fresh -jobs-dir gets the same three
//     submissions and is SIGKILLed once every job has checkpointed at
//     least minChunksAtKill chunks but none has finished. This daemon
//     alone runs with every chunk stretched by victimFault, so the window
//     between those two events is set by the gate, not by how fast the
//     host draws chunks or schedules the jobs;
//   - resume: a third daemon boots on the killed daemon's -jobs-dir,
//     replays the WAL (including whatever torn tail the kill left),
//     resumes all three jobs, and must finish them with counts
//     bit-identical to the reference run, chunks_recovered covering every
//     checkpoint the gate had observed, and chunks_recovered +
//     chunks_executed == chunks_total — i.e. no committed chunk was ever
//     sampled twice, so the only possibly re-sampled chunk per job is the
//     single one in flight at the moment of the kill.
//
// Run via `make job-gate`. Exit code 0 means the resume contract holds.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"
)

const (
	// minChunksAtKill is how many checkpoints every job must have before
	// the SIGKILL: enough that a resume demonstrably reuses prior work.
	minChunksAtKill = 3
	// victimFault sleeps before every chunk of the daemon that is killed.
	// Two workers then need at least about 90 ms for every job to reach
	// minChunksAtKill chunks, and the 31-chunk job at least 620 ms to
	// finish, so the kill lands in a window of half a second whatever the
	// host's load. Contended chunks commit alone (group commit batches a
	// job's chunks only while no other job is runnable), so each one is a
	// checkpoint the gate can observe.
	victimFault  = "job.chunk.sample:latency(20ms)"
	pollEvery    = 2 * time.Millisecond
	phaseTimeout = 60 * time.Second
)

// jobSubmit describes one of the gate's three jobs, of tens of 65,536-shot
// chunks each (62, 46 and 31): enough that victimFault opens a wide kill
// window, few enough that the unarmed runs finish in well under a second.
// Each job has a tenant of its own, so fair share advances all three
// together: within one tenant a higher-priority job would run first, and
// with equal chunk sizes the other job there could stall until it is done.
type jobSubmit struct {
	Circuit  string `json:"circuit"`
	Shots    int    `json:"shots"`
	Seed     uint64 `json:"seed"`
	Priority string `json:"priority,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
}

var jobs = []jobSubmit{
	{Circuit: "ghz_10", Shots: 4_000_000, Seed: 7, Tenant: "acme"},
	{Circuit: "ghz_12", Shots: 3_000_000, Seed: 11, Priority: "high", Tenant: "beta"},
	{Circuit: "ghz_14", Shots: 2_000_000, Seed: 13, Priority: "low", Tenant: "guest"},
}

type jobStatus struct {
	ID              string `json:"job_id"`
	State           string `json:"state"`
	ChunksTotal     int    `json:"chunks_total"`
	ChunksDone      int    `json:"chunks_done"`
	ChunksRecovered int    `json:"chunks_recovered"`
	ChunksExecuted  int    `json:"chunks_executed"`
	ErrorCode       string `json:"error_code"`
	Error           string `json:"error"`
}

func main() {
	if err := gate(); err != nil {
		fmt.Fprintln(os.Stderr, "job-gate: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("job-gate: OK")
}

// daemon is one weaksimd subprocess plus the address it bound.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches the built weaksimd on an ephemeral port with the
// given jobs dir and fault spec (empty: unarmed), and waits for its
// "listening on" line.
func startDaemon(bin, jobsDir, faultSpec string) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-jobs-dir", jobsDir,
		"-job-workers", "2",
		"-drain-timeout", "30s")
	cmd.Env = append(os.Environ(), "WEAKSIM_FAULT="+faultSpec)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start weaksimd: %w", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "weaksimd: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrCh <- addr
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, addr: addr}, nil
	case <-time.After(phaseTimeout):
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("weaksimd never reported its address")
	}
}

// stop drains the daemon with SIGTERM and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(phaseTimeout):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("weaksimd did not drain after SIGTERM")
	}
}

// kill SIGKILLs the daemon — no drain, no checkpoint flush, the crash the
// WAL exists for — and reaps the process.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

func (d *daemon) submit(js jobSubmit) (jobStatus, error) {
	body, _ := json.Marshal(js)
	resp, err := http.Post("http://"+d.addr+"/v1/jobs", "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		return jobStatus{}, fmt.Errorf("submit %s: %w", js.Circuit, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return jobStatus{}, fmt.Errorf("submit %s: status %d: %s", js.Circuit, resp.StatusCode, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return jobStatus{}, fmt.Errorf("submit %s: decode: %w", js.Circuit, err)
	}
	return st, nil
}

func (d *daemon) status(id string) (jobStatus, error) {
	resp, err := http.Get("http://" + d.addr + "/v1/jobs/" + id)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, fmt.Errorf("status %s: %d: %s", id, resp.StatusCode, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return jobStatus{}, err
	}
	return st, nil
}

func (d *daemon) result(id string) (map[string]int, error) {
	resp, err := http.Get("http://" + d.addr + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: %d: %s", id, resp.StatusCode, raw)
	}
	var out struct {
		Counts map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out.Counts, nil
}

// waitCompleted polls the given jobs until all reach "completed", failing
// fast on any terminal error state.
func (d *daemon) waitCompleted(ids []string) (map[string]jobStatus, error) {
	deadline := time.Now().Add(phaseTimeout)
	final := make(map[string]jobStatus)
	for {
		allDone := true
		for _, id := range ids {
			st, err := d.status(id)
			if err != nil {
				return nil, err
			}
			switch st.State {
			case "completed":
				final[id] = st
			case "failed", "cancelled":
				return nil, fmt.Errorf("job %s reached %s (%s: %s)", id, st.State, st.ErrorCode, st.Error)
			default:
				allDone = false
			}
		}
		if allDone {
			return final, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("jobs did not complete within %v", phaseTimeout)
		}
		time.Sleep(pollEvery)
	}
}

func gate() error {
	work, err := os.MkdirTemp("", "jobgate-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	bin := filepath.Join(work, "weaksimd")
	// Build by module path, not "./cmd/weaksimd", so the gate also runs from
	// other directories inside the module (e.g. its own package test).
	build := exec.Command("go", "build", "-o", bin, "weaksim/cmd/weaksimd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build weaksimd: %w", err)
	}

	// Phase 1 — reference: uninterrupted run, ground-truth counts.
	fmt.Println("job-gate: phase 1: uninterrupted reference run")
	refDir := filepath.Join(work, "ref")
	ref, err := startDaemon(bin, refDir, "")
	if err != nil {
		return err
	}
	var refIDs []string
	for _, js := range jobs {
		st, err := ref.submit(js)
		if err != nil {
			ref.kill()
			return err
		}
		refIDs = append(refIDs, st.ID)
	}
	if _, err := ref.waitCompleted(refIDs); err != nil {
		ref.kill()
		return err
	}
	want := make([]map[string]int, len(jobs))
	for i, id := range refIDs {
		if want[i], err = ref.result(id); err != nil {
			ref.kill()
			return err
		}
	}
	if err := ref.stop(); err != nil {
		return fmt.Errorf("reference drain: %w", err)
	}

	// Phase 2 — kill: same submissions, SIGKILL once every job has
	// checkpointed progress and none has finished.
	fmt.Println("job-gate: phase 2: SIGKILL mid-run")
	liveDir := filepath.Join(work, "live")
	victim, err := startDaemon(bin, liveDir, victimFault)
	if err != nil {
		return err
	}
	var ids []string
	for _, js := range jobs {
		st, err := victim.submit(js)
		if err != nil {
			victim.kill()
			return err
		}
		ids = append(ids, st.ID)
	}
	observed := make(map[string]int) // last chunks_done seen per job
	deadline := time.Now().Add(phaseTimeout)
	for {
		minDone, maxDone, finished := 1<<31, 0, 0
		for i, id := range ids {
			st, err := victim.status(id)
			if err != nil {
				victim.kill()
				return err
			}
			observed[id] = st.ChunksDone
			if st.ChunksDone < minDone {
				minDone = st.ChunksDone
			}
			if st.ChunksDone > maxDone {
				maxDone = st.ChunksDone
			}
			if st.State == "completed" {
				finished++
			}
			if st.State == "failed" || st.State == "cancelled" {
				victim.kill()
				return fmt.Errorf("job %d reached %s before the kill", i, st.State)
			}
		}
		if finished > 0 {
			victim.kill()
			return fmt.Errorf("%d job(s) finished before the kill; shrink chunk progress window", finished)
		}
		if minDone >= minChunksAtKill {
			break
		}
		if time.Now().After(deadline) {
			victim.kill()
			return fmt.Errorf("jobs never reached %d chunks (min %d, max %d)", minChunksAtKill, minDone, maxDone)
		}
		time.Sleep(pollEvery)
	}
	victim.kill()
	fmt.Printf("job-gate: killed with observed progress %v\n", progressLine(ids, observed))

	// Phase 3 — resume: a fresh daemon on the same dir must finish every
	// job bit-identically with at most the in-flight chunk re-sampled.
	fmt.Println("job-gate: phase 3: restart and resume")
	resumed, err := startDaemon(bin, liveDir, "")
	if err != nil {
		return err
	}
	defer resumed.kill()
	final, err := resumed.waitCompleted(ids)
	if err != nil {
		return err
	}
	for i, id := range ids {
		st := final[id]
		if st.ChunksRecovered < observed[id] {
			return fmt.Errorf("job %d: recovered %d chunks but %d were checkpointed before the kill — committed work was lost",
				i, st.ChunksRecovered, observed[id])
		}
		if st.ChunksRecovered >= st.ChunksTotal {
			return fmt.Errorf("job %d: recovered all %d chunks — the kill missed the run; nothing was resumed",
				i, st.ChunksTotal)
		}
		// Recovered + executed == total means every chunk the restarted
		// daemon sampled was one the WAL did not already hold: the only
		// possibly re-sampled chunk is the single one in flight at the kill.
		if st.ChunksRecovered+st.ChunksExecuted != st.ChunksTotal {
			return fmt.Errorf("job %d: recovered %d + executed %d != total %d — a committed chunk was re-sampled",
				i, st.ChunksRecovered, st.ChunksExecuted, st.ChunksTotal)
		}
		got, err := resumed.result(id)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want[i]) {
			return fmt.Errorf("job %d (%s): resumed counts differ from the uninterrupted reference run",
				i, jobs[i].Circuit)
		}
		total := 0
		for _, n := range got {
			total += n
		}
		if total != jobs[i].Shots {
			return fmt.Errorf("job %d: counts sum to %d, want %d", i, total, jobs[i].Shots)
		}
		fmt.Printf("job-gate: job %d (%s): %d chunks recovered, %d executed after restart, counts bit-identical\n",
			i, jobs[i].Circuit, st.ChunksRecovered, st.ChunksExecuted)
	}
	if err := resumed.stop(); err != nil {
		return fmt.Errorf("resumed daemon drain: %w", err)
	}
	return nil
}

func progressLine(ids []string, observed map[string]int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("job%d=%d", i, observed[id])
	}
	return strings.Join(parts, " ")
}
