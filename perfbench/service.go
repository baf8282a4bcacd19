package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"perspector/internal/metric"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/store"
	"perspector/internal/suites"
)

// The service_open traffic: an open loop of single-suite score jobs in
// perspectorload's request shape (stock suites round robin, seeds
// shifted per round), every third request repeating an earlier one.
const (
	// serviceRate is requests per second: 1.5 fresh jobs per second.
	// The node runs as many jobs at once as there are CPUs, one worker
	// each, so a long fresh SPEC'17 job holds one CPU and the jobs
	// behind it run on the others instead of sharing CPUs with its
	// fan-out. On a 2-CPU host, 3 requests/s made the scaled figure
	// spread by 15% of itself over ten seeds, against 9% at this rate.
	serviceRate    = 2.25
	serviceInstr   = 20_000
	serviceSamples = 10
	repeatEvery    = 3 // request i repeats an earlier one when i%repeatEvery == repeatEvery-1
	// maxLag bounds how late the generator may send a request. A run in
	// which any request went out later is invalid: it reports a failure
	// instead of quietly measuring a lighter load.
	maxLag = 200 * time.Millisecond
	// calibEvery is how many requests go out between two pauses of the
	// generator for the reference kernel (calib.go), which then runs
	// calibSamples times.
	calibEvery, calibSamples = 9, 3
	// calibSettle lets the node finish what it does after a job (its
	// garbage collection, the store write) before the kernel runs.
	calibSettle = 50 * time.Millisecond
	// drainWait bounds how long the run waits for outstanding jobs after
	// the last request.
	drainWait = 60 * time.Second
)

// daemon is a perspectord child process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  *os.File
	done chan error
}

// startDaemon launches perspectord with an empty result store and an
// empty measurement cache and waits until /healthz answers.
func (b *bench) startDaemon() (*daemon, error) {
	if b.daemon == "" {
		return nil, errors.New("no -perspectord binary given")
	}
	dir, err := b.subdir("daemon-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	jobs := strconv.Itoa(b.workers)
	cmd := exec.Command(b.daemon,
		"-addr", "127.0.0.1:"+port,
		"-store-dir", filepath.Join(dir, "store"),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-workers", "1", "-jobs", jobs,
		"-bench-history", "")
	cmd.Stdout, cmd.Stderr = log, log
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + port, dir: dir, log: log, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("perspectord exited during start-up: %v (log in %s)", err, log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("perspectord did not become healthy within 30s")
		}
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 20 s) and
// waits until it has exited.
func (d *daemon) stop() {
	defer d.log.Close()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

// request is one planned submission.
type request struct {
	body     []byte
	suite    string
	seed     uint64
	repeatOf int           // index of the original request, or -1 for a fresh one
	due      time.Duration // planned send time, since the start of the load

	// Filled in by the run.
	dueAt     time.Duration // due, moved later by the pauses before it
	sent      time.Duration // when the generator sent it, since the start
	submit    time.Duration // POST round trip
	status    int
	job       string
	deduped   bool
	err       error
	snap      jobSnapshot
	result    []byte
	resultDur time.Duration
}

// jobSnapshot is the part of perspectord's job snapshot the benchmark
// reads.
type jobSnapshot struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Replayed   bool   `json:"replayed"`
	CreatedAt  string `json:"created_at"`
	StartedAt  string `json:"started_at"`
	FinishedAt string `json:"finished_at"`
}

// planRequests draws the run's request sequence from the seed.
func planRequests(seed uint64, n int) []*request {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	names := suites.StockNames()
	reqs := make([]*request, n)
	fresh := 0
	for i := range reqs {
		due := time.Duration(float64(i) / serviceRate * float64(time.Second))
		if i%repeatEvery == repeatEvery-1 {
			j := r.IntN(i)
			if reqs[j].repeatOf >= 0 {
				j = reqs[j].repeatOf
			}
			reqs[i] = &request{body: reqs[j].body, suite: reqs[j].suite, seed: reqs[j].seed, repeatOf: j, due: due}
			continue
		}
		name := names[fresh%len(names)]
		cseed := seed + uint64(fresh/len(names))
		fresh++
		body, _ := json.Marshal(map[string]any{
			"kind":   "score",
			"suites": []string{name},
			"config": map[string]any{"instructions": serviceInstr, "samples": serviceSamples, "seed": cseed},
		})
		reqs[i] = &request{body: body, suite: name, seed: cseed, repeatOf: -1, due: due}
	}
	return reqs
}

// runServiceOpen: perspectord as one node on loopback, fed an open loop
// of score requests at a fixed rate. Each request's latency runs from
// when it was due to when its job finished; the end-to-end op is a
// fresh job.
func runServiceOpen(b *bench) error {
	par.SetWorkers(b.workers)
	// Set-up starts perspectord with an empty store and cache and waits
	// for /healthz; it runs 11 times and the last daemon takes the load.
	// Each pause of the load starts and stops one more, spare, daemon,
	// so the set-up median covers the whole run as the kernel does.
	var d *daemon
	setup := &setupTimer{fn: func() error {
		var err error
		d, err = b.startDaemon()
		return err
	}}
	var err error
	for i := 0; i < 11 && err == nil; i++ {
		if d != nil {
			d.stop()
		}
		err = setup.run(1)
	}
	if d != nil {
		defer func() { d.stop() }()
	}
	if err != nil {
		return err
	}
	var spare *daemon
	spareSetup := &setupTimer{fn: func() error {
		var err error
		spare, err = b.startDaemon()
		return err
	}}
	var spareErr error

	n := int(b.seconds.Seconds() * serviceRate)
	reqs := planRequests(b.seed, n)
	submitC := &http.Client{Timeout: 30 * time.Second, Transport: oneConn()}
	collectC := &http.Client{Timeout: drainWait, Transport: oneConn()}
	defer submitC.CloseIdleConnections()
	defer collectC.CloseIdleConnections()

	if !resetPeak(d.pid()) {
		b.note("the daemon's peak-RSS account could not be reset: peak_rss_mb includes its set-up")
	}
	storeBefore := dirBytes(filepath.Join(d.dir, "store"))
	stageBefore, err := storeStage(collectC, d.base)
	if err != nil {
		return err
	}

	// The generator sends each request at its due time from its own
	// goroutine; the collector waits for results in submission order.
	// Latency comes from the job's server-side finish time, so the
	// collector's order does not delay any measurement. Every
	// calibEvery requests the generator pauses: once every request so
	// far has its result and the node is idle, it times the reference
	// kernel, then resumes with the rest of the schedule moved later by
	// the pause. The kernel so sees the host as the jobs around it did,
	// without competing with them.
	ctx, cancel := context.WithTimeout(context.Background(), b.seconds+drainWait)
	defer cancel()
	cal := b.cal
	submitted := make(chan int, n) // one send per request
	var pending sync.WaitGroup     // requests sent and not yet collected
	start := time.Now()
	go func() {
		var wg sync.WaitGroup
		var shift time.Duration
		for i, rq := range reqs {
			if i%calibEvery == 0 {
				t0 := time.Now()
				pending.Wait()
				time.Sleep(calibSettle)
				for k := 0; k < calibSamples; k++ {
					cal.sample()
				}
				if spareErr == nil {
					if spareErr = spareSetup.run(1); spareErr == nil {
						spare.stop()
					}
				}
				shift += time.Since(t0)
			}
			rq.dueAt = rq.due + shift
			if wait := time.Until(start.Add(rq.dueAt)); wait > 0 {
				time.Sleep(wait)
			}
			rq.sent = time.Since(start)
			pending.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				submit(ctx, submitC, d.base, reqs[i])
				submitted <- i
			}(i)
		}
		wg.Wait()
		close(submitted)
	}()
	for i := range submitted {
		collect(ctx, collectC, d.base, reqs[i])
		pending.Done()
	}
	time.Sleep(calibSettle)
	for k := 0; k < calibSamples; k++ {
		cal.sample()
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return err
	}
	stageAfter, err := storeStage(collectC, d.base)
	if err != nil {
		return err
	}
	storeGrowth := dirBytes(filepath.Join(d.dir, "store")) - storeBefore

	// End-to-end metrics. The op is a fresh job: repeats (replays and
	// deduplicated submissions) load the node too, but take the store's
	// read path and have their own per-layer figure.
	var lat, replay, lags, submits, resultDurs []float64
	rejected, deduped := 0, 0
	for _, rq := range reqs {
		b.op()
		lags = append(lags, millis(rq.sent-rq.dueAt))
		if rq.err != nil {
			if rq.status == http.StatusTooManyRequests || rq.status >= 500 {
				rejected++
			}
			b.fail("request %s seed %d: %v", rq.suite, rq.seed, rq.err)
			continue
		}
		submits = append(submits, millis(rq.submit))
		resultDurs = append(resultDurs, millis(rq.resultDur))
		if rq.deduped {
			deduped++
		}
		finished, err := time.Parse(time.RFC3339Nano, rq.snap.FinishedAt)
		if err != nil {
			b.fail("job %s: finish time %q: %v", rq.job, rq.snap.FinishedAt, err)
			continue
		}
		l := millis(finished.Sub(start.Add(rq.dueAt)))
		lat = append(lat, l)
		if rq.repeatOf >= 0 {
			replay = append(replay, l)
		} else {
			due := start.Add(rq.dueAt)
			b.ops = append(b.ops, timing{at: due.Add(finished.Sub(due) / 2), raw: l, group: rq.suite})
		}
	}
	if spareErr != nil {
		b.fail("spare daemon: %v", spareErr)
	}
	b.setTimes(append(setup.times, spareSetup.times...))
	b.set("peak_rss_mb", rss, 1)
	b.note("op = one fresh score job, submit to finish, timed from its due time; %d requests at %.2f/s, one in %d a repeat",
		n, serviceRate, repeatEvery)
	b.note("peak_rss_mb is the daemon's peak over the load")

	lagMax := quantile(lags, 1)
	if lagMax > millis(maxLag) {
		b.fail("generator ran late: max lag %.1f ms exceeds the %v bound; the run is invalid", lagMax, maxLag)
	}
	b.checkService(reqs)

	// Per-layer metrics: client side, job snapshots, /metrics deltas.
	b.set("loadgen.lag_p95_ms", quantile(lags, 0.95), len(lags))
	b.set("loadgen.lag_max_ms", lagMax, len(lags))
	b.set("server.submit_ms.p50", median(submits), len(submits))
	b.set("server.result_ms.p50", median(resultDurs), len(resultDurs))
	b.set("server.rejected", float64(rejected), n)
	b.set("server.job_p95_ms", quantile(lat, 0.95), len(lat))
	b.set("server.replay_p50_ms", median(replay), len(replay))
	b.note("server.job_p95_ms leaves %d samples beyond it", len(lat)-int(float64(len(lat))*0.95+0.5))
	b.jobLayer(reqs, deduped)
	if dc := stageAfter.count - stageBefore.count; dc > 0 {
		b.set("store.put_ms", 1000*(stageAfter.sum-stageBefore.sum)/dc, int(dc))
	} else {
		b.fail("no store stage recorded on /metrics")
	}
	b.set("store.bytes_appended", float64(storeGrowth), 1)
	if b.tr != nil {
		cfg := suites.DefaultConfig()
		cfg.Instructions, cfg.Samples, cfg.Seed = serviceInstr, serviceSamples, b.seed
		var meas []*perf.SuiteMeasurement
		for _, name := range suites.StockNames() {
			if m := b.oracle[name]; m != nil {
				meas = append(meas, m)
			}
		}
		if len(meas) != len(suites.StockNames()) {
			b.fail("in-process layer pass covered %d of the stock suites", len(meas))
			return nil
		}
		b.note("in-process layer metrics come from the oracle's traced score of the first fresh job of each suite")
		b.layerMetrics(cfg, meas, 0, 0, 0)
	}
	return nil
}

// oneConn is an HTTP transport limited to a single connection.
func oneConn() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
}

// submit POSTs one request and records the job it maps to.
func submit(ctx context.Context, c *http.Client, base string, rq *request) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/jobs", bytes.NewReader(rq.body))
	if err != nil {
		rq.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		rq.err = err
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rq.submit = time.Since(t0)
	rq.status = resp.StatusCode
	if err != nil {
		rq.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		rq.err = fmt.Errorf("submit refused: %d %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	var sub struct {
		Job     jobSnapshot `json:"job"`
		Deduped bool        `json:"deduped"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.Job.ID == "" {
		rq.err = fmt.Errorf("submit response %q: %v", raw, err)
		return
	}
	rq.job, rq.deduped = sub.Job.ID, sub.Deduped
}

// collect waits for a submitted request's job to finish, then reads its
// snapshot and its result.
func collect(ctx context.Context, c *http.Client, base string, rq *request) {
	if rq.err != nil {
		return
	}
	if _, _, err := get(ctx, c, base+"/api/v1/jobs/"+rq.job+"/result?wait=1"); err != nil {
		rq.err = err
		return
	}
	raw, _, err := get(ctx, c, base+"/api/v1/jobs/"+rq.job)
	if err != nil {
		rq.err = err
		return
	}
	if err := json.Unmarshal(raw, &rq.snap); err != nil {
		rq.err = fmt.Errorf("job snapshot: %w", err)
		return
	}
	if rq.snap.State != "done" {
		rq.err = fmt.Errorf("job %s ended %q", rq.job, rq.snap.State)
		return
	}
	rq.result, rq.resultDur, rq.err = get(ctx, c, base+"/api/v1/jobs/"+rq.job+"/result")
}

// get fetches a URL and requires 200.
func get(ctx context.Context, c *http.Client, url string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, d, nil
}

// checkService enforces the service oracles: every replay or dedup
// returns its original's ScoreSet, and the first fresh job of each suite
// equals an in-process score of the same request.
func (b *bench) checkService(reqs []*request) {
	checked := map[string]bool{}
	for _, rq := range reqs {
		if rq.err != nil {
			continue
		}
		var got store.ScoreSet
		if err := json.Unmarshal(rq.result, &got); err != nil {
			b.op()
			b.fail("job %s result: %v", rq.job, err)
			continue
		}
		if rq.repeatOf >= 0 {
			orig := reqs[rq.repeatOf]
			if orig.err != nil {
				continue
			}
			var want store.ScoreSet
			b.op()
			if err := json.Unmarshal(orig.result, &want); err != nil || !sameScoreRows(got.Suites, want.Suites) {
				b.fail("repeat of %s seed %d returned other scores than the original job", rq.suite, rq.seed)
			}
			continue
		}
		if checked[rq.suite] {
			continue
		}
		checked[rq.suite] = true
		b.op()
		want, err := b.inProcessScore(rq.suite, rq.seed)
		if err != nil {
			b.fail("in-process score of %s: %v", rq.suite, err)
			continue
		}
		if !sameScoreRows(got.Suites, store.FromScores(want)) {
			b.fail("job for %s seed %d differs from the in-process score", rq.suite, rq.seed)
		}
	}
}

// inProcessScore scores one suite as a perspectord score job does,
// through the traced decomposition when tracing.
func (b *bench) inProcessScore(name string, seed uint64) ([]metric.Scores, error) {
	cfg := suites.DefaultConfig()
	cfg.Instructions, cfg.Samples, cfg.Seed = serviceInstr, serviceSamples, seed
	b.tr.nextPass()
	op := b.tr.begin(-1, "bench", "oracle", name, true)
	defer op.end()
	sp := b.tr.begin(op.id(), "suites", "suites.build", name, true)
	s, err := suites.ByName(name, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	var ms []*perf.SuiteMeasurement
	if b.tr != nil {
		if ms, err = b.tracedMeasure(op.id(), cfg, []suites.Suite{s}, nil); err != nil {
			return nil, err
		}
		if b.oracle == nil {
			b.oracle = map[string]*perf.SuiteMeasurement{}
		}
		b.oracle[name] = ms[0]
		return b.tracedScore(op.id(), ms)
	}
	m, err := suites.RunContext(context.Background(), s, cfg)
	if err != nil {
		return nil, err
	}
	return metric.ScoreSuites(context.Background(), []*perf.SuiteMeasurement{m}, metric.DefaultOptions(), nil)
}

// sameScoreRows compares ScoreSet rows bit for bit (JSON carries
// shortest round-trip floats, so decoding restores the exact bits).
func sameScoreRows(a, b []store.SuiteScores) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x := metric.Scores{Suite: a[i].Suite, Cluster: a[i].Cluster, Trend: a[i].Trend, Coverage: a[i].Coverage, Spread: a[i].Spread}
		y := metric.Scores{Suite: b[i].Suite, Cluster: b[i].Cluster, Trend: b[i].Trend, Coverage: b[i].Coverage, Spread: b[i].Spread}
		if !sameScores([]metric.Scores{x}, []metric.Scores{y}) {
			return false
		}
	}
	return true
}

// jobLayer derives the jobs-layer metrics from the job snapshots: queue
// wait and run time of executed jobs, and how many were replayed or
// deduplicated.
func (b *bench) jobLayer(reqs []*request, deduped int) {
	seen := map[string]bool{}
	var wait, run []float64
	replayed := 0
	for _, rq := range reqs {
		if rq.err != nil || seen[rq.job] {
			continue
		}
		seen[rq.job] = true
		if rq.snap.Replayed {
			replayed++
			continue
		}
		c, err1 := time.Parse(time.RFC3339Nano, rq.snap.CreatedAt)
		s, err2 := time.Parse(time.RFC3339Nano, rq.snap.StartedAt)
		f, err3 := time.Parse(time.RFC3339Nano, rq.snap.FinishedAt)
		if err := errors.Join(err1, err2, err3); err != nil {
			b.fail("job %s timestamps: %v", rq.job, err)
			continue
		}
		wait = append(wait, millis(s.Sub(c)))
		run = append(run, millis(f.Sub(s)))
	}
	b.set("jobs.queue_wait_ms.p50", median(wait), len(wait))
	b.set("jobs.queue_wait_ms.p95", quantile(wait, 0.95), len(wait))
	b.set("jobs.run_ms.p50", median(run), len(run))
	b.set("jobs.run_ms.p95", quantile(run, 0.95), len(run))
	b.set("jobs.replayed", float64(replayed), len(seen))
	b.set("jobs.deduped", float64(deduped), len(reqs))
}

// stageStat is one histogram's running sum and count.
type stageStat struct{ sum, count float64 }

// storeStage scrapes perspectord's /metrics for the store stage
// histogram.
func storeStage(c *http.Client, base string) (stageStat, error) {
	raw, _, err := get(context.Background(), c, base+"/metrics")
	if err != nil {
		return stageStat{}, err
	}
	var st stageStat
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		for suffix, dst := range map[string]*float64{"_sum": &st.sum, "_count": &st.count} {
			prefix := "perspectord_stage_duration_seconds" + suffix + `{stage="store"} `
			if v, ok := strings.CutPrefix(line, prefix); ok {
				if *dst, err = strconv.ParseFloat(v, 64); err != nil {
					return stageStat{}, fmt.Errorf("/metrics %q: %w", line, err)
				}
			}
		}
	}
	return st, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
