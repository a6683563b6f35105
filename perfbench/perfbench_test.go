package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/leak"
)

// mainEnv makes a re-execution of the test binary run the benchmark's
// main instead of the tests.
const mainEnv = "PERFBENCH_TEST_MAIN"

func TestMain(m *testing.M) {
	switch {
	case os.Getenv(workerEnv) == "1":
		os.Exit(runWorker())
	case os.Getenv(mainEnv) == "1":
		os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSequenceHashFollowsSeed(t *testing.T) {
	for _, w := range workloadNames {
		hash := func(seed int64) string {
			in, err := makeInputs(w, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			return in.sequenceHash()
		}
		a, b, c := hash(1), hash(1), hash(2)
		if a != b {
			t.Errorf("%s: seed 1 gave %s then %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave %s", w, a)
		}
	}
}

// TestAuditSeparatesKnownDefect checks the audit's verdicts: a served
// diagram that belongs to an isomorphic query is the known pattern-cache
// defect, any other mismatch makes the run incorrect.
func TestAuditSeparatesKnownDefect(t *testing.T) {
	in := warmInputs(1)
	all := make([]int32, len(in.queries))
	for i := range all {
		all[i] = int32(i)
	}
	refs := references(context.Background(), in, all)
	var a, b int32 = -1, -1
	for i := range all {
		for j := range all {
			ri, rj := refs[int32(i)], refs[int32(j)]
			if i != j && ri.pattern != 0 && ri.pattern == rj.pattern && ri.hash != rj.hash {
				a, b = int32(i), int32(j)
			}
		}
	}
	if a < 0 {
		t.Fatal("the warm mix holds no isomorphic pair with distinct diagrams")
	}
	in.warm = nil
	recs := []record{
		{q: b, hash: refs[b].hash},
		{q: a, hash: refs[a].hash},
		{q: a, hash: refs[b].hash, hit: true},
		{q: a, hash: 12345},
	}
	got := auditRecords(context.Background(), in, recs)
	if got.attempted != 4 || got.wrong != 2 || got.wrongHit != 1 || got.explained != 1 || got.unexplained != 1 || got.failed != 0 {
		t.Errorf("audit = %+v; want 2 wrong, 1 wrong hit, 1 explained, 1 unexplained", got)
	}
}

// TestTraceReconciles runs each workload briefly with the traced pass and
// checks the ledger: layer self times plus the unattributed time equal
// the traced end-to-end time, and the unattributed time stays within
// reconcileTolerance of it.
func TestTraceReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, report, err := runWorkload(context.Background(), options{
				workload: w, seed: 1, seconds: 1, trace: true, traceDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			lg := report["ledger"].(*ledger)
			sum := lg.attributed() + lg.Unattributed
			if math.Abs(sum-lg.E2EUS) > 1e-6*lg.E2EUS {
				t.Errorf("Σ self %.1fµs + unattributed %.1fµs = %.1fµs; traced end-to-end %.1fµs",
					lg.attributed(), lg.Unattributed, sum, lg.E2EUS)
			}
			if share := math.Abs(lg.Unattributed) / lg.E2EUS; share > reconcileTolerance {
				t.Errorf("unattributed %.1fµs is %.1f%% of %.1fµs end-to-end; tolerance %.0f%%",
					lg.Unattributed, 100*share, lg.E2EUS, 100*reconcileTolerance)
			}
			for _, k := range []string{"http.client_overhead", "server.overhead", "diagcache.lookup"} {
				if lg.LayerReqs[k] == 0 {
					t.Errorf("layer %s never entered", k)
				}
			}
		})
	}
}

// childrenOf lists the PIDs whose parent is pid, from /proc.
func childrenOf(pid int) []int {
	entries, _ := os.ReadDir("/proc")
	var kids []int
	for _, e := range entries {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		data, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		s := string(data)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(pid) {
			kids = append(kids, p)
		}
	}
	return kids
}

// TestSIGTERMLeavesNoProcess SIGTERMs a fabric-skew run mid-flight and
// checks that it exits non-zero without a result, and that every worker
// it had started is gone (not even a zombie is left).
func TestSIGTERMLeavesNoProcess(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "--workload", "fabric-skew", "--seed", "1", "--seconds", "30",
		"--trace", "0", "--trace-out", t.TempDir())
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var workers []int
	deadline := time.Now().Add(60 * time.Second)
	for len(workers) < 2 {
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("the benchmark never started its two workers")
		}
		time.Sleep(50 * time.Millisecond)
		workers = childrenOf(cmd.Process.Pid)
	}
	time.Sleep(500 * time.Millisecond) // let the load start
	workers = append(workers, childrenOf(cmd.Process.Pid)...)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatal("the benchmark did not exit within 30s of SIGTERM")
	}
	if err == nil {
		t.Error("the benchmark exited 0 after SIGTERM")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("the benchmark printed a result after SIGTERM:\n%s", stdout.String())
	}
	for _, pid := range workers {
		if _, err := os.Stat("/proc/" + strconv.Itoa(pid)); err == nil {
			t.Errorf("worker %d outlived the benchmark", pid)
		}
	}
	if kids := leak.Children(); len(kids) > 0 {
		t.Errorf("test process has children left: %v", kids)
	}
}
