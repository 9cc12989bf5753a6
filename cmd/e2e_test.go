//go:build unix

// Package cmd_test runs every command and example the way an operator
// does: built binaries, real files, real sockets, SIGINT to stop a
// daemon. Each subtest of TestCommands is one command's contract;
// `go test ./cmd -run 'TestCommands/<name>' -v` runs one of them.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/build"
	"hash/fnv"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uncharted/internal/service"
)

var (
	// binDir holds every command and example, built by TestMain.
	binDir string
	// y1 is a year-1 capture at -scale 0.25 (62 k packets), shared
	// read-only by the subtests.
	y1 string
)

// TestMain builds ./cmd/... and ./examples/... with the toolchain that
// runs the test, and generates the shared capture.
func TestMain(m *testing.M) {
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	dir, err := os.MkdirTemp("", "uncharted-cmd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	binDir = binaryDir(dir)
	y1 = filepath.Join(dir, "y1.pcap")
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, c := range []*exec.Cmd{
		exec.Command(gotool, "build", "-o", binDir+string(filepath.Separator), "./cmd/...", "./examples/..."),
		exec.Command(filepath.Join(binDir, "iec104gen"), "-year", "1", "-scale", "0.25", "-out", y1),
	} {
		c.Dir = ".."
		if out, err := c.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n%s", strings.Join(c.Args, " "), err, out)
			return 1
		}
	}
	return m.Run()
}

// binaryDir is where TestMain builds: a directory of the user's cache
// kept between runs, one per checkout (about 180 MB), so that go build
// relinks only the binaries whose sources changed. Linking all 21
// afresh takes about 7 s on 2 vCPUs. Without a user cache it is tmp.
func binaryDir(tmp string) string {
	cache, err := os.UserCacheDir()
	root, aerr := filepath.Abs("..")
	if err != nil || aerr != nil {
		return filepath.Join(tmp, "bin")
	}
	h := fnv.New64a()
	h.Write([]byte(root))
	return filepath.Join(cache, "uncharted-cmd-test", strconv.FormatUint(h.Sum64(), 16))
}

// commandTests is every subtest of TestCommands with the binaries it
// runs: the subtest must run each of them, and every main package under
// cmd/ and examples/ must be named by some entry (TestCommands/every-main).
var commandTests = []struct {
	name string
	bins []string
	fn   func(*testing.T)
}{
	{"tables", []string{"benchtables"}, testTables},
	{"trace", []string{"iec104live", "profiler", "tracecheck"}, testTrace},
	{"profiler", []string{"profiler", "iec104gen"}, testProfiler},
	{"attack", []string{"iec104live"}, testAttack},
	{"livewire", []string{"iec104replay", "iec104station"}, testLiveWire},
	{"station", []string{"iec104station"}, testStation},
	{"dashboard", []string{"iec104live", "unchartedtop"}, testDashboard},
	{"service", []string{"unchartedd", "loadgen"}, testService},
	{"pipelines", []string{"unchartedd"}, testPipelines},
	{"profilediff", []string{"profilediff", "profiler", "iec104gen"}, testProfileDiff},
	{"agcsim", []string{"agcsim"}, testAgcsim},
	{"iec104dump", []string{"iec104dump"}, testDump},
	{"historianctl", []string{"profiler", "historianctl"}, testHistorianctl},
	{"quickstart", []string{"quickstart"}, example("quickstart", "non-compliant stations: [O28 O37]")},
	{"anomalies", []string{"anomalies"}, example("anomalies", "O28   speaks legacy-cot8", "perplexity healthy=")},
	{"livestation", []string{"livestation"}, example("livestation", "(inrogen)", "accepted setpoint IOA 7001", "done: a full primary-connection lifecycle")},
	{"physical", []string{"physical"}, example("physical", "AGC reduced=true restored=true", "generator activation signature")},
	{"stream", []string{"stream"}, example("stream", "ALERT", "final merged state (identical to the offline analyzer)")},
	{"intrusion", []string{"intrusion"}, testIntrusion},
}

func TestCommands(t *testing.T) {
	for _, tc := range commandTests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			t.Cleanup(func() {
				if t.Failed() {
					return
				}
				want := slices.Clone(tc.bins)
				slices.Sort(want)
				if got := ranBy(t); !slices.Equal(got, want) {
					t.Errorf("ran %v, declared %v", got, want)
				}
			})
			tc.fn(t)
		})
	}
	t.Run("every-main", func(t *testing.T) {
		t.Parallel()
		declared := map[string]bool{}
		for _, tc := range commandTests {
			for _, b := range tc.bins {
				declared[b] = true
			}
		}
		mains := map[string]bool{}
		for _, root := range []string{".", "../examples"} {
			dirs, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dirs {
				if !d.IsDir() {
					continue
				}
				pkg, err := build.ImportDir(filepath.Join(root, d.Name()), 0)
				if err == nil && pkg.Name == "main" {
					mains[d.Name()] = true
				}
			}
		}
		for m := range mains {
			if !declared[m] {
				t.Errorf("no subtest runs main package %s", m)
			}
		}
		for b := range declared {
			if !mains[b] {
				t.Errorf("a subtest declares %s, which is no main package under cmd/ or examples/", b)
			}
		}
	})
}

// ran records which binaries each top-level subtest ran.
var ran = struct {
	sync.Mutex
	by map[string]map[string]bool
}{by: map[string]map[string]bool{}}

// subtest is the TestCommands subtest t belongs to.
func subtest(t *testing.T) string {
	return strings.SplitN(t.Name(), "/", 3)[1]
}

// exe is the path of a built binary, noted as run by t's subtest.
func exe(t *testing.T, name string) string {
	ran.Lock()
	defer ran.Unlock()
	s := subtest(t)
	if ran.by[s] == nil {
		ran.by[s] = map[string]bool{}
	}
	ran.by[s][name] = true
	return filepath.Join(binDir, name)
}

// ranBy lists, sorted, the binaries t's subtest ran.
func ranBy(t *testing.T) []string {
	ran.Lock()
	defer ran.Unlock()
	var names []string
	for n := range ran.by[subtest(t)] {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// killedBySignal is the exit code exec reports for a process a signal
// ended rather than one that exited.
const killedBySignal = -1

// exitCode is err's exit code: 0 for nil, the status of a process that
// ran; any other error (the binary did not start) fails the test.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	}
	t.Fatal(err)
	return 0
}

// run runs a built command in dir to completion and returns its stdout
// and stderr; the test fails unless it exits with code want.
func run(t *testing.T, dir string, want int, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(exe(t, name), args...)
	cmd.Dir = dir
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	if code := exitCode(t, cmd.Run()); code != want {
		t.Fatalf("%s %s: exit %d, want %d\nstderr:\n%s", name, strings.Join(args, " "), code, want, e.String())
	}
	return o.String(), e.String()
}

// addrLine is the startup line each daemon logs once it is bound:
// "... on http://ADDR/" (the graph host and unchartedd) or
// "listening on ADDR" (iec104replay, iec104station serve).
var addrLine = regexp.MustCompile(`(?:on http://|listening on )([^\s/]+)[/\n]`)

// daemonLog collects a daemon's stderr and hands over the address of
// its first startup line.
type daemonLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found bool
	addr  chan string
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.found {
		return len(p), nil
	}
	if m := addrLine.FindSubmatch(l.buf.Bytes()); m != nil {
		l.found = true
		l.addr <- string(m[1])
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// A daemon is a command started in the background on 127.0.0.1:0.
type daemon struct {
	name   string
	addr   string // the bound address read from its startup line
	cmd    *exec.Cmd
	stdout bytes.Buffer
	log    *daemonLog
	done   chan struct{}
	err    error
}

// waitLimit bounds every wait on a daemon: its startup, a condition
// polled over HTTP, its drain after SIGINT.
const waitLimit = time.Minute

// start starts a daemon in dir and returns once it has logged the
// address it listens on. A daemon the test leaves running is killed.
func start(t *testing.T, dir, name string, args ...string) *daemon {
	t.Helper()
	d := &daemon{name: name, log: &daemonLog{addr: make(chan string, 1)}, done: make(chan struct{})}
	d.cmd = exec.Command(exe(t, name), args...)
	d.cmd.Dir = dir
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
	})
	select {
	case d.addr = <-d.log.addr:
		return d
	case <-d.done:
		t.Fatalf("%s exited before it listened: %v\n%s", name, d.err, d.log)
	case <-time.After(waitLimit):
		t.Fatalf("%s logged no listen address within %v\n%s", name, waitLimit, d.log)
	}
	return nil
}

// stop sends SIGINT, waits for the exit and fails the test unless the
// exit code is want. It returns the daemon's stdout and stderr.
func (d *daemon) stop(t *testing.T, want int) (stdout, stderr string) {
	t.Helper()
	d.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(waitLimit):
		t.Fatalf("%s did not exit within %v of SIGINT\n%s", d.name, waitLimit, d.log)
	}
	if code := exitCode(t, d.err); code != want {
		t.Fatalf("%s: exit %d after SIGINT, want %d\nstderr:\n%s", d.name, code, want, d.log)
	}
	return d.stdout.String(), d.log.String()
}

var client = &http.Client{Timeout: 10 * time.Second}

// getJSON GETs url and decodes its body into v; anything but a 200 is
// an error.
func getJSON(url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// graphView is what the subtests read of a graph-view document
// (/statusz?format=json of a graph host, a tenant's /pipeline).
type graphView []struct {
	Name     string `json:"name"`
	Segments []struct {
		State      string `json:"state"`
		PacketsOut int64  `json:"packets_out"`
	} `json:"segments"`
}

// states lists the first graph's segment states.
func (g graphView) states() []string {
	var states []string
	if len(g) > 0 {
		for _, s := range g[0].Segments {
			states = append(states, s.State)
		}
	}
	return states
}

// eventually retries f until it returns nil, and fails the test with
// f's last error after waitLimit.
func eventually(t *testing.T, what string, f func() error) {
	t.Helper()
	deadline := time.Now().Add(waitLimit)
	for {
		err := f()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// mustContain fails the test unless out contains every want.
func mustContain(t *testing.T, what, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("%s lacks %q:\n%s", what, w, out)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// testTables: the paper's tables regenerate at a small scale.
func testTables(t *testing.T) {
	out, _ := run(t, t.TempDir(), 0, "benchtables", "-exp", "table3", "-scale", "0.05")
	mustContain(t, "benchtables -exp table3", out, "table3", "short-lived", "long-lived")
}

// testTrace: both traced pipelines cover every hot-path stage in their
// Chrome trace. The simulator feed takes the decoded path (no route or
// decode: its records are already packets; no plan: nothing to
// segment). The profiler over a capture takes the segmented raw path
// (the src -> an graph hands the file to the engine, and -workers 4
// defaults -readers to 4), so it must also record plan, route and
// decode. tracecheck exits non-zero when a required stage has no spans.
func testTrace(t *testing.T) {
	dir := t.TempDir()
	run(t, dir, 0, "iec104live", "-duration", "30s", "-workers", "4", "-trace-sample", "4", "-trace", "live.json")
	run(t, dir, 0, "tracecheck", "-require", "read,enqueue,feed,merge,publish", "live.json")
	run(t, dir, 0, "profiler", "-workers", "4", "-report", "flows", "-trace-sample", "4", "-trace", "raw.json", y1)
	run(t, dir, 0, "tracecheck", "-require", "plan,read,route,enqueue,decode,feed,merge,publish", "raw.json")
}

// testProfiler: profiler is one graph at any -workers, so the reports
// it renders from the merged state do not depend on the shard count.
// Only a one-shard run has a whole-run analyzer: it trains an IDS
// whitelist on a clean capture, which scans that capture with no
// critical deviation and another day's with the scan section printed;
// a sharded run refuses -save-baseline and prints timing as
// unavailable. An unknown report is a usage error, and a journal that
// cannot be written fails the run.
func testProfiler(t *testing.T) {
	dir := t.TempDir()
	const reports = "flows,compliance,clusters,markov,types,physical"
	w1, _ := run(t, dir, 0, "profiler", "-workers", "1", "-report", reports, y1)
	w4, _ := run(t, dir, 0, "profiler", "-workers", "4", "-report", reports, y1)
	if w1 != w4 {
		t.Errorf("reports differ at 1 and 4 shards:\n--- 1 shard\n%s\n--- 4 shards\n%s", w1, w4)
	}

	timing, _ := run(t, dir, 0, "profiler", "-report", "timing", "-save-baseline", "ids.base", y1)
	mustContain(t, "one-shard timing report", timing, "cycles=")
	const header = "== IDS scan against ids.base =="
	scan, _ := run(t, dir, 0, "profiler", "-report", "flows", "-load-baseline", "ids.base", y1)
	mustContain(t, "scan of the training capture", scan, header)
	if strings.Contains(scan, "sev3") {
		t.Errorf("clean capture scanned critical against its own baseline:\n%s", scan)
	}
	run(t, dir, 0, "iec104gen", "-year", "1", "-scale", "0.25", "-seed", "5", "-out", "other.pcap")
	other, _ := run(t, dir, 0, "profiler", "-report", "flows", "-load-baseline", "ids.base", "other.pcap")
	mustContain(t, "scan of another day", other, header)

	run(t, dir, 2, "profiler", "-workers", "4", "-save-baseline", "no.base", y1)
	sharded, _ := run(t, dir, 0, "profiler", "-workers", "4", "-report", "timing", y1)
	mustContain(t, "timing at 4 shards", sharded, "(unavailable at more than one shard")
	run(t, dir, 2, "profiler", "-report", "bogus", y1)
	if runtime.GOOS == "linux" {
		run(t, dir, 1, "profiler", "-workers", "4", "-journal", "/dev/full", y1)
	}
}

// testAttack: -attack is the declared sim -> {an, ids} graph. The
// injected recon raises alerts through the ids segment, and the run
// still prints its final profile.
func testAttack(t *testing.T) {
	stdout, stderr := run(t, t.TempDir(), 0, "iec104live", "-attack", "recon", "-duration", "30s")
	mustContain(t, "iec104live -attack recon log", stderr, "ALERT", "new-endpoint")
	var prof struct {
		Packets int64 `json:"packets"`
	}
	if err := json.Unmarshal([]byte(stdout), &prof); err != nil || prof.Packets == 0 {
		t.Errorf("final profile: %d packets (%v)", prof.Packets, err)
	}
}

// testLiveWire: the codec against a real socket. iec104replay serves the
// capture's busiest outstation over TCP, and iec104station poll dials
// it, starts data transfer, interrogates and prints measurements
// answered with cause inrogen. iec104replay has no SIGINT handler, so
// the signal ends it.
func testLiveWire(t *testing.T) {
	dir := t.TempDir()
	replay := start(t, dir, "iec104replay", "-listen", "127.0.0.1:0", "-speed", "50", y1)
	out, _ := run(t, dir, 0, "iec104station", "poll", "-addr", replay.addr, "-tail", "100ms")
	mustContain(t, "poll of the replayed outstation", out, "cause=inrogen")
	replay.stop(t, killedBySignal)
}

// testStation: a live outstation confirms a setpoint on a point it has
// and sends a negative confirmation for one it lacks, which fails the
// poll. A control station speaking the legacy 8-bit-COT dialect to a
// standard server fails too. SIGINT closes the outstation cleanly.
func testStation(t *testing.T) {
	dir := t.TempDir()
	rtu := start(t, dir, "iec104station", "serve", "-listen", "127.0.0.1:0", "-ca", "29")
	_, log := run(t, dir, 0, "iec104station", "poll", "-addr", rtu.addr, "-ca", "29", "-setpoint", "7001=55.5")
	mustContain(t, "known setpoint", log, "setpoint 7001=55.500 confirmed")
	_, log = run(t, dir, 1, "iec104station", "poll", "-addr", rtu.addr, "-ca", "29", "-setpoint", "9999=1")
	mustContain(t, "unknown setpoint", log, "setpoint rejected")
	run(t, dir, 1, "iec104station", "poll", "-addr", rtu.addr, "-ca", "29", "-dialect", "legacy-cot8", "-tail", "100ms")
	_, log = rtu.stop(t, 0)
	mustContain(t, "outstation log", log, "accepted setpoint IOA 7001 = 55.50")
}

// testDashboard: a single-analyzer command serves its engine's own
// /statusz at the root, the document unchartedtop decodes, and the graph
// view under /pipelines/live/statusz. The engine books its metrics on a
// label view of the host's registry while its flight recorder feeds the
// root, so with -trace the root /statusz still lists stage rows. SIGINT
// drains clean.
func testDashboard(t *testing.T) {
	dir := t.TempDir()
	// At -speed 1 the two-minute feed outlasts the test: SIGINT ends it.
	live := start(t, dir, "iec104live", "-speed", "1", "-metrics", "127.0.0.1:0", "-trace", "live.json")
	base := "http://" + live.addr
	eventually(t, "first published profile", func() error {
		var prof json.RawMessage
		return getJSON(base+"/profile", &prof)
	})
	run(t, dir, 0, "unchartedtop", "-once", "-addr", live.addr)
	eventually(t, "graph view", func() error {
		var g graphView
		if err := getJSON(base+"/pipelines/live/statusz?format=json", &g); err != nil {
			return err
		}
		if len(g) == 0 || g[0].Name != "live" || len(g[0].Segments) == 0 || g[0].Segments[0].PacketsOut == 0 {
			return fmt.Errorf("no packets out of the live graph's input: %+v", g)
		}
		return nil
	})
	var status struct {
		Stages []json.RawMessage `json:"stages"`
	}
	if err := getJSON(base+"/statusz?format=json", &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Stages) == 0 {
		t.Error("root /statusz has no stage rows under -trace")
	}
	live.stop(t, 0)
}

// testService: the control-room daemon with two paced simulator tenants
// (ingest keeps publishing under load), a finished-capture tenant with a
// historian and a declared pipeline over the same capture. The mixed
// read workload sees no 5xx and a hot snapshot cache. The capture
// tenant's feed ends within the first second, and its historian still
// answers a point query afterwards (the drain closes it, not EOF); the
// declared pipeline serves its profile under /v1 like any tenant. A
// daemon over a truncated capture exits 1: a tenant whose ingest failed
// is not a clean run.
func testService(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "smoke.json"), fmt.Sprintf(`{
  "listen": "127.0.0.1:0",
  "historian_root": "hist",
  "tenants": [
    {"name": "east", "source": {"kind": "sim", "year": 1, "seed": 7, "speed": 120},
     "workers": 2, "snapshot": "500ms", "historian": true},
    {"name": "west", "source": {"kind": "sim", "year": 2, "seed": 9, "speed": 120},
     "workers": 2, "snapshot": "500ms", "historian": true},
    {"name": "era", "source": {"kind": "pcap", "path": %[1]q}, "historian": true}
  ],
  "pipelines": [
    {"name": "declared", "segments": [
      {"id": "src", "segment": "pcap", "params": {"path": %[1]q}},
      {"id": "an", "segment": "analyzer", "from": ["src"]}
    ]}
  ]
}`, y1))
	d := start(t, dir, "unchartedd", "smoke.json")
	base := "http://" + d.addr
	run(t, dir, 0, "loadgen", "-base", base, "-tenants", "east,west",
		"-clients", "200", "-duration", "1s", "-mix", "profile:8,query:2,statusz:1",
		"-out", "service-load.json", "-max-5xx", "0", "-require-hit-ratio", "0.5")
	raw, err := os.ReadFile(filepath.Join(dir, "service-load.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep service.LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	t.Logf("loadgen: %d requests, p50 %.0fus, p99 %.0fus, hit ratio %.3f",
		rep.Requests, rep.P50Micros, rep.P99Micros, rep.CacheHitRatio)
	if rep.CacheHits == 0 {
		t.Error("no cache hits")
	}

	eventually(t, "era tenant done", func() error {
		var g graphView
		if err := getJSON(base+"/v1/era/pipeline?format=json", &g); err != nil {
			return err
		}
		if states := g.states(); len(states) == 0 || slices.ContainsFunc(states, func(s string) bool { return s != "done" }) {
			return fmt.Errorf("segment states %v", states)
		}
		return nil
	})
	var catalog []struct {
		Station string `json:"station"`
		IOA     uint32 `json:"ioa"`
	}
	if err := getJSON(base+"/v1/era/query", &catalog); err != nil || len(catalog) == 0 {
		t.Fatalf("era catalog: %d points (%v)", len(catalog), err)
	}
	q := url.Values{"station": {catalog[0].Station}, "ioa": {strconv.FormatUint(uint64(catalog[0].IOA), 10)}}
	var rows []json.RawMessage
	if err := getJSON(base+"/v1/era/query?"+q.Encode(), &rows); err != nil || len(rows) == 0 {
		t.Errorf("point query after EOF: %d rows (%v)", len(rows), err)
	}
	eventually(t, "declared pipeline's profile", func() error {
		var prof struct {
			Packets int64 `json:"packets"`
		}
		if err := getJSON(base+"/v1/declared/profile", &prof); err != nil {
			return err
		}
		if prof.Packets == 0 {
			return errors.New("no packets in the declared pipeline's profile")
		}
		return nil
	})
	d.stop(t, 0)

	capture, err := os.ReadFile(y1)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "cut.pcap"), string(capture[:300000]))
	writeFile(t, filepath.Join(dir, "cut.json"),
		`{"listen": "127.0.0.1:0", "tenants": [{"name": "cut", "source": {"kind": "pcap", "path": "cut.pcap"}}]}`)
	cut := start(t, dir, "unchartedd", "cut.json")
	eventually(t, "truncated tenant failed", func() error {
		var g graphView
		if err := getJSON("http://"+cut.addr+"/v1/cut/pipeline?format=json", &g); err != nil {
			return err
		}
		if states := g.states(); !slices.Contains(states, "failed") {
			return fmt.Errorf("segment states %v", states)
		}
		return nil
	})
	cut.stop(t, 1)
}

// testPipelines: every committed example config dry-runs clean on the
// daemon, and a misspelt key fails the dry run naming the key. The live
// IDS fleet boots for real: it publishes a snapshot, its historian
// catalog fills, the combined /statusz lists it, and SIGINT drains it
// with exit 0. With no address to serve on, a finished capture's graph
// exports its profile and the daemon exits 0 on its own.
func testPipelines(t *testing.T) {
	dir := t.TempDir()
	configs, err := filepath.Glob("../examples/pipelines/*.jsonc")
	if err != nil || len(configs) == 0 {
		t.Fatalf("example configs: %v (%v)", configs, err)
	}
	for i, c := range configs {
		if configs[i], err = filepath.Abs(c); err != nil {
			t.Fatal(err)
		}
	}
	run(t, dir, 0, "unchartedd", append([]string{"-validate"}, configs...)...)
	writeFile(t, filepath.Join(dir, "typo.json"),
		`{"tenants": [{"name": "east", "source": {"kind": "sim"}, "worker": 2}]}`)
	_, stderr := run(t, dir, 1, "unchartedd", "-validate", "typo.json")
	mustContain(t, "-validate typo.json", stderr, `typo.json:1: tenant "east": unknown key "worker"`)

	// Keep the example's historian inside the test's directory.
	src, err := os.ReadFile("../examples/pipelines/live-ids.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	const hist = "/tmp/uncharted-live-historian"
	if !bytes.Contains(src, []byte(hist)) {
		t.Fatalf("live-ids.jsonc no longer writes its historian to %s", hist)
	}
	writeFile(t, filepath.Join(dir, "live-ids.jsonc"), strings.ReplaceAll(string(src), hist, filepath.Join(dir, "hist")))
	p := start(t, dir, "unchartedd", "-addr", "127.0.0.1:0", "live-ids.jsonc")
	base := "http://" + p.addr
	eventually(t, "published snapshot", func() error {
		var prof struct {
			Packets int64 `json:"packets"`
		}
		if err := getJSON(base+"/pipelines/live/an/profile", &prof); err != nil {
			return err
		}
		if prof.Packets == 0 {
			return errors.New("no packets in the published snapshot")
		}
		return nil
	})
	var catalog []json.RawMessage
	if err := getJSON(base+"/pipelines/live/an/query", &catalog); err != nil || len(catalog) == 0 {
		t.Errorf("historian catalog: %d points (%v)", len(catalog), err)
	}
	var status graphView
	if err := getJSON(base+"/statusz?format=json", &status); err != nil || len(status) == 0 || status[0].Name != "live" {
		t.Errorf("statusz lists %+v (%v), want the live pipeline", status, err)
	}
	p.stop(t, 0)

	writeFile(t, filepath.Join(dir, "batch.jsonc"), fmt.Sprintf(`{"pipelines": [{"name": "batch", "segments": [
  {"id": "src", "segment": "pcap", "params": {"path": %q}},
  {"id": "an", "segment": "analyzer", "from": ["src"]},
  {"id": "out", "segment": "export", "from": ["an"], "params": {"path": "profile.json", "format": "json"}},
]}]}`, y1))
	run(t, dir, 0, "unchartedd", "batch.jsonc")
	var exported struct {
		Packets int64 `json:"packets"`
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "profile.json")); err != nil || json.Unmarshal(raw, &exported) != nil || exported.Packets == 0 {
		t.Errorf("batch export: %d packets (%v)", exported.Packets, err)
	}
}

// testProfileDiff: the paper's longitudinal experiment (§6). A saved
// profile of each synthesized campaign diffs with the planted era
// changes surfacing, exit 1 on drift (diff(1) convention) and 0 for an
// era against itself. The analyzer's drift watch (profiler -baseline)
// prints the same report at any -workers.
func testProfileDiff(t *testing.T) {
	dir := t.TempDir()
	run(t, dir, 0, "iec104gen", "-year", "2", "-scale", "0.5", "-out", "b.pcap")
	run(t, dir, 0, "profilediff", "save", "-out", "a.prof", "-label", "2017-11", y1)
	run(t, dir, 0, "profilediff", "save", "-out", "b.prof", "-label", "2019-03", "-workers", "3", "b.pcap")
	report, _ := run(t, dir, 1, "profilediff", "diff", "a.prof", "b.prof")
	mustContain(t, "era diff", report, "timing-shift", "endpoint-added")
	run(t, dir, 0, "profilediff", "diff", "a.prof", "a.prof")
	l1, _ := run(t, dir, 0, "profiler", "-report", "flows", "-baseline", "a.prof", "-workers", "1", "b.pcap")
	l4, _ := run(t, dir, 0, "profiler", "-report", "flows", "-baseline", "a.prof", "-workers", "4", "b.pcap")
	if l1 != l4 {
		t.Errorf("drift reports differ at 1 and 4 shards:\n--- 1 shard\n%s\n--- 4 shards\n%s", l1, l4)
	}
	mustContain(t, "profiler -baseline", l1, "timing-shift")
}

// testAgcsim: the power-system substrate prints one CSV row per
// simulated second under its header.
func testAgcsim(t *testing.T) {
	out, _ := run(t, t.TempDir(), 0, "agcsim", "-duration", "1m")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	const header = "t_seconds,frequency_hz,load_mw,total_gen_mw,G1_mw,G1_setpoint_mw,G1_ugrid_kv,G1_uterm_kv,G1_breaker,"
	if !strings.HasPrefix(lines[0], header) || !strings.HasSuffix(lines[0], ",agc_commands") {
		t.Errorf("CSV header %q", lines[0])
	}
	if len(lines) != 62 {
		t.Errorf("%d lines, want the header and 61 rows (0 s .. 60 s)", len(lines))
	}
}

// testDump: -n stops after that many frames and still summarizes the
// endpoints' dialects; -proto auto -q prints only the summary of every
// dialect the registry detects.
func testDump(t *testing.T) {
	dir := t.TempDir()
	out, _ := run(t, dir, 0, "iec104dump", "-n", "3", y1)
	frames, summary, ok := strings.Cut(out, "\nEndpoint dialects:\n")
	if !ok || len(strings.Split(strings.TrimSpace(frames), "\n")) != 3 || !strings.Contains(summary, "dialect=standard") {
		t.Errorf("iec104dump -n 3: want three frames and the dialect summary:\n%s", out)
	}
	out, _ = run(t, dir, 0, "iec104dump", "-proto", "auto", "-q", y1)
	if !strings.HasPrefix(out, "\nDialect summary:\n") || !strings.Contains(out, "iec104   frames=") {
		t.Errorf("iec104dump -proto auto -q: want the dialect summary alone:\n%s", out)
	}
}

// testHistorianctl: the offline tool reads what the profiler's historian
// wrote. ls lists the points; get returns a point's samples, raw or
// bucketed; export writes every sample as CSV; compact keeps what its
// retention covers and drops what it does not.
func testHistorianctl(t *testing.T) {
	dir := t.TempDir()
	run(t, dir, 0, "profiler", "-report", "flows", "-historian", "hist", y1)
	ls, _ := run(t, dir, 0, "historianctl", "ls", "-dir", "hist")
	total := regexp.MustCompile(`(\d+) points, (\d+) samples`).FindStringSubmatch(ls)
	rows := strings.Split(ls, "\n")
	if total == nil || len(rows) < 2 {
		t.Fatalf("historianctl ls:\n%s", ls)
	}
	first := strings.Fields(rows[1])
	station, ioa, samples := first[0], first[1], first[4]

	get, _ := run(t, dir, 0, "historianctl", "get", "-dir", "hist", "-station", station, "-ioa", ioa)
	if n := strings.Count(get, "\n"); strconv.Itoa(n) != samples {
		t.Errorf("get %s/%s: %d samples, ls says %s", station, ioa, n, samples)
	}
	buckets, _ := run(t, dir, 0, "historianctl", "get", "-dir", "hist", "-station", station, "-ioa", ioa, "-step", "1m")
	mustContain(t, "get -step 1m", buckets, "min=", "max=", "mean=")

	_, log := run(t, dir, 0, "historianctl", "export", "-dir", "hist", "-o", "dump.csv")
	mustContain(t, "export log", log, "exported "+total[2]+" samples from "+total[1]+" point(s)")
	csv, err := os.ReadFile(filepath.Join(dir, "dump.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(csv, []byte("station,ioa,time,value\n")) || strconv.Itoa(bytes.Count(csv, []byte("\n"))-1) != total[2] {
		t.Errorf("dump.csv: want the header and %s rows", total[2])
	}

	// The capture is of 2019-03-11: a year's retention a day later keeps
	// it all, measured from today it keeps nothing.
	run(t, dir, 0, "historianctl", "compact", "-dir", "hist", "-retention", "8760h", "-now", "2019-03-12T00:00:00Z")
	kept, _ := run(t, dir, 0, "historianctl", "ls", "-dir", "hist")
	mustContain(t, "ls after a compaction within retention", kept, total[0])
	run(t, dir, 0, "historianctl", "compact", "-dir", "hist", "-retention", "8760h")
	if gone, _ := run(t, dir, 0, "historianctl", "ls", "-dir", "hist"); strings.Contains(gone, " samples,") {
		t.Errorf("ls after compacting past retention:\n%s", gone)
	}
}

// example runs an example, which checks itself, and looks for the lines
// of its narrative that carry the result.
func example(name string, want ...string) func(*testing.T) {
	return func(t *testing.T) {
		out, _ := run(t, t.TempDir(), 0, name)
		mustContain(t, name, out, want...)
	}
}

// testIntrusion: a whitelist trained on a clean capture raises no
// critical alert on another clean day, and critical ones on the recon
// and on the setpoint tampering.
func testIntrusion(t *testing.T) {
	out, _ := run(t, t.TempDir(), 0, "intrusion")
	counts := regexp.MustCompile(`alerts: \d+ info, \d+ warning, (\d+) critical`).FindAllStringSubmatch(out, -1)
	if len(counts) != 2 || counts[0][1] != "0" || counts[1][1] == "0" {
		t.Errorf("want 0 criticals on the clean scan and some on the recon scan:\n%s", out)
	}
	_, tamper, _ := strings.Cut(out, "insider tampering")
	mustContain(t, "setpoint-tamper scan", tamper, "[sev3 value-out-of-range]")
}
