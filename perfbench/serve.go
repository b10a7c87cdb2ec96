package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dftmsn/internal/core"
	"dftmsn/internal/scenario"
	"dftmsn/internal/service"
)

// The serve workload: an in-process dftserve on loopback with an fsync'd
// journal. The open loop's rate is fixed: about half the miss capacity
// measured on a 2-CPU host (2 workers / ~50 ms per miss = ~40 misses/s),
// so its queue stays short and hit and miss latency both stay readable.
const (
	serveWarm      = 48  // distinct configs in the warm set
	serveHistory   = 600 // cache-hit repeats journaled during prefill
	servePrefills  = 7   // prefill repeats; wall_s is their median
	serveRestarts  = 40  // restarts on the prefilled journal; setup_s is their median
	serveRate      = 100 // open-loop requests per second
	serveMissShare = 0.2
	serveSample    = 5 // misses re-run directly and compared
	servePoll      = 2 * time.Millisecond
)

// missConfig is one small run request: OPT, 50 sensors, 500 s.
func missConfig(seed uint64) scenario.Config {
	cfg := scenario.DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 50
	cfg.DurationSeconds = 500
	cfg.Seed = seed
	return cfg
}

func requestBody(cfg scenario.Config) ([]byte, error) {
	blob, err := scenario.EncodeConfig(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.Request{Kind: "run", Config: blob})
}

// request is one scheduled open-loop submission.
type request struct {
	body []byte
	warm int // index into the warm set; -1 for a miss
	cfg  scenario.Config
	openLoop
	result json.RawMessage // a miss's payload once done
}

// serveInputs are the generated configs, bodies and schedule.
type serveInputs struct {
	warm     [][]byte
	schedule []request
}

func makeServeInputs(seed uint64, seconds float64) (serveInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x73657276))
	base := rng.Uint64N(1 << 40)
	var in serveInputs
	for i := 0; i < serveWarm; i++ {
		b, err := requestBody(missConfig(base + uint64(i)))
		if err != nil {
			return in, err
		}
		in.warm = append(in.warm, b)
	}
	next := base + serveWarm
	for at := rng.ExpFloat64() / serveRate; at < seconds; at += rng.ExpFloat64() / serveRate {
		req := request{warm: -1, openLoop: openLoop{due: time.Duration(at * float64(time.Second))}}
		if rng.Float64() < serveMissShare {
			req.cfg = missConfig(next)
			next++
			b, err := requestBody(req.cfg)
			if err != nil {
				return in, err
			}
			req.body = b
		} else {
			req.warm = rng.IntN(serveWarm)
			req.body = in.warm[req.warm]
		}
		in.schedule = append(in.schedule, req)
	}
	return in, nil
}

// server is an in-process dftserve on a loopback listener.
type server struct {
	svc  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(journal string) (*server, error) {
	svc, err := service.New(service.Options{Workers: runtime.NumCPU(), JournalPath: journal})
	if err != nil {
		return nil, err
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(0)
		return nil, err
	}
	s := &server{svc: svc, hs: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, waits for the HTTP server to
// return, then drains the service and closes its journal.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.svc.Shutdown(10 * time.Second)
}

// client is one keep-alive connection to the server.
type client struct {
	url string
	hc  *http.Client
	tr  *http.Transport
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) do(req *http.Request) ([]byte, int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func (c *client) get(path string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, c.url+path, nil)
	if err != nil {
		return nil, 0, err
	}
	return c.do(req)
}

// submit posts one job and decodes the reply.
func (c *client) submit(body []byte) (service.JobStatus, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, err
	}
	b, code, err := c.do(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return service.JobStatus{}, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(b))
	}
	var st service.JobStatus
	return st, json.Unmarshal(b, &st)
}

func (c *client) status(id string) (service.JobStatus, error) {
	b, code, err := c.get("/v1/jobs/" + id)
	if err != nil {
		return service.JobStatus{}, err
	}
	if code != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("status %s: HTTP %d", id, code)
	}
	var st service.JobStatus
	return st, json.Unmarshal(b, &st)
}

// awaitDone polls the job list until every job in ids is terminal and
// returns the clocks when that was first seen, then fetches each job's
// final status.
func (c *client) awaitDone(ids []string, limit time.Duration) (rtSample, []service.JobStatus, error) {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	deadline := time.Now().Add(limit)
	var doneAt rtSample
	for doneAt.wall.IsZero() {
		if time.Now().After(deadline) {
			return doneAt, nil, fmt.Errorf("jobs unfinished after %v", limit)
		}
		time.Sleep(servePoll)
		b, code, err := c.get("/v1/jobs")
		if err != nil || code != http.StatusOK {
			return doneAt, nil, fmt.Errorf("job list: HTTP %d: %v", code, err)
		}
		var list []service.JobStatus
		if err := json.Unmarshal(b, &list); err != nil {
			return doneAt, nil, err
		}
		finished := 0
		for _, st := range list {
			if want[st.ID] && (st.State == "done" || st.State == "cancelled" || st.State == "quarantined") {
				finished++
			}
		}
		if finished == len(ids) {
			doneAt = sampleRuntime()
		}
	}
	final := make([]service.JobStatus, len(ids))
	for i, id := range ids {
		st, err := c.status(id)
		if err != nil {
			return doneAt, nil, err
		}
		final[i] = st
	}
	return doneAt, final, nil
}

func runServe(r *run) error {
	in, err := makeServeInputs(r.seed, r.seconds)
	if err != nil {
		return err
	}
	var tr *tracer
	root := -1
	if r.trace {
		tr = newTracer()
		root = tr.begin("serve", -1)
	}
	// phase opens a span under the workload's (a no-op when untraced) and
	// returns its id and the function that closes it.
	phase := func(name string) (int, func()) {
		if tr == nil {
			return -1, func() {}
		}
		id := tr.begin(name, root)
		return id, func() { tr.end(id) }
	}

	// Prefill: the warm set as a burst of misses on nproc connections,
	// into a fresh journal each time; the last journal gains the history.
	var walls []float64
	var payloads []json.RawMessage
	var journal string
	for i := 0; i < servePrefills; i++ {
		journal = filepath.Join(r.dir, fmt.Sprintf("journal-%d.jsonl", i))
		_, end := phase("prefill")
		wall, got, err := prefill(r, journal, in.warm, i == servePrefills-1)
		end()
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		if payloads == nil {
			payloads = got
		}
		for k := range got {
			if !r.check(bytes.Equal(got[k], payloads[k]), "serve: prefill %d payload %d differs from the first prefill", i, k) {
				r.failed++
			}
		}
	}
	r.set("wall_s", median(walls), "s")

	// Restart on the prefilled journal until /readyz answers. One restart is
	// too short to read steal from, so the CPU and steal of all the timed
	// restarts together net their median.
	var setups []float64
	var cpu, steal float64
	var srv *server
	for i := 0; i < serveRestarts; i++ {
		if srv != nil {
			srv.stop()
		}
		runtime.GC() // keep a pending collection out of the timed restart
		_, end := phase("restart")
		a := sampleRuntime()
		t0 := a.wall
		srv, err = startServer(journal)
		if err != nil {
			return err
		}
		c := newClient(srv.url)
		for {
			_, code, err := c.get("/readyz")
			if err == nil && code == http.StatusOK {
				break
			}
			if time.Since(t0) > 10*time.Second {
				c.close()
				srv.stop()
				return fmt.Errorf("restart: /readyz not ready after 10s")
			}
			time.Sleep(time.Millisecond)
		}
		b := sampleRuntime()
		setups = append(setups, b.wall.Sub(t0).Seconds())
		cpu += b.cpu - a.cpu
		steal += b.steal - a.steal
		end()
		c.close()
	}
	r.set("setup_s", median(setups)*grantedShare(cpu, steal), "s")
	defer srv.stop()

	rt0 := sampleRuntime()
	olid, end := phase("open-loop")
	reqs := openLoopRun(r, srv.url, in, payloads)
	end()
	rt1 := sampleRuntime()
	if tr != nil {
		r.setPhase(phaseBetween(rt0, rt1))
	}
	sampleMisses(r, reqs)
	if !r.trace {
		return nil
	}
	olStart := tr.snapshot()[olid].Start
	var hits, misses, late []float64
	var cached int
	for _, q := range reqs {
		if q.done == 0 {
			continue
		}
		name := "miss"
		ms := float64(q.latency().Nanoseconds()) / 1e6
		if q.warm >= 0 {
			name = "hit"
			hits = append(hits, ms)
			cached++
		} else {
			misses = append(misses, ms)
		}
		late = append(late, float64(q.late().Nanoseconds())/1e6)
		tr.add(span{Name: name, Start: olStart + q.due, End: olStart + q.done, Parent: olid})
	}
	tr.end(root)
	reportTail(r, "service.hit", hits, 99)
	reportTail(r, "service.miss", misses, 95)
	if p, ok := tailPercentile(len(late), 99); ok {
		r.set("service.gen_late_ms", percentile(late, p), "ms")
	}
	r.set("service.cache_hit_frac", float64(cached)/float64(len(reqs)), "ratio")
	if err := serviceLayers(r, srv, journal, in); err != nil {
		return err
	}
	return tr.write(spanPath("serve"))
}

// reportTail reports the median and the tail percentile of a latency set.
func reportTail(r *run, prefix string, ms []float64, want float64) {
	r.set(prefix+"_p50_ms", percentile(ms, 50), "ms")
	p, ok := tailPercentile(len(ms), want)
	if !ok {
		r.check(false, "%s: %d samples are too few for a tail percentile", prefix, len(ms))
		return
	}
	if p != want {
		fmt.Fprintf(os.Stderr, "perfbench: %s_p%g_ms reports p%g (%d samples)\n", prefix, want, p, len(ms))
	}
	r.set(fmt.Sprintf("%s_p%g_ms", prefix, want), percentile(ms, p), "ms")
}

// prefill runs the warm set through a fresh server on journal and returns
// the net time from the first submission until every job was seen done,
// with the warm payloads. With history set it then journals serveHistory
// cache hits, each of which must return the warm payload.
func prefill(r *run, journal string, warm [][]byte, history bool) (float64, []json.RawMessage, error) {
	srv, err := startServer(journal)
	if err != nil {
		return 0, nil, err
	}
	defer srv.stop()
	conns := runtime.NumCPU()
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = newClient(srv.url)
		defer clients[i].close()
	}
	ids := make([]string, len(warm))
	errs := make([]error, conns)
	t0 := sampleRuntime()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(warm); i += conns {
				st, err := clients[w].submit(warm[i])
				if err != nil {
					errs[w] = err
					return
				}
				ids[i] = st.ID
			}
		}(w)
	}
	wg.Wait()
	r.attempted += len(warm)
	for _, err := range errs {
		if err != nil {
			r.failed += len(warm)
			return 0, nil, err
		}
	}
	last, final, err := clients[0].awaitDone(ids, time.Minute)
	if err != nil {
		r.failed += len(warm)
		return 0, nil, err
	}
	payloads := make([]json.RawMessage, len(warm))
	for i, st := range final {
		if !r.check(st.State == "done" && !st.CacheHit && len(st.Result) > 0, "serve: warm job %d ended %s (cache hit %v)", i, st.State, st.CacheHit) {
			r.failed++
		}
		payloads[i] = st.Result
	}
	wall := netSeconds(t0, last)
	if !history {
		return wall, payloads, nil
	}
	for i := 0; i < serveHistory; i++ {
		k := i % len(warm)
		st, err := clients[0].submit(warm[k])
		r.attempted++
		if err != nil {
			r.failed++
			return 0, nil, err
		}
		if !r.check(st.State == "done" && st.CacheHit && bytes.Equal(st.Result, payloads[k]), "serve: history repeat of warm %d not a matching cache hit", k) {
			r.failed++
		}
	}
	return wall, payloads, nil
}

// openLoopRun plays the schedule against the server: one connection submits
// each request when it falls due, another polls the misses at a fixed
// interval. Hits must come back born done with the prefill payload.
func openLoopRun(r *run, url string, in serveInputs, warm []json.RawMessage) []request {
	reqs := append([]request(nil), in.schedule...)
	sub, poll := newClient(url), newClient(url)
	defer sub.close()
	defer poll.close()
	type pending struct {
		i  int
		id string
	}
	// Sized to the schedule so the submitter never blocks on the poller.
	missCh := make(chan pending, len(reqs))
	var mu sync.Mutex // guards failures recorded by the poller
	var problems []string
	fail := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var open []pending
		more := true
		for more || len(open) > 0 {
			for drained := false; !drained; {
				select {
				case p, ok := <-missCh:
					if !ok {
						more, drained = false, true
					} else {
						open = append(open, p)
					}
				default:
					drained = true
				}
			}
			kept := open[:0]
			for _, p := range open {
				st, err := poll.status(p.id)
				switch {
				case err != nil:
					fail("miss %d: %v", p.i, err)
				case st.State == "done":
					reqs[p.i].done = time.Since(start)
					reqs[p.i].result = st.Result
				case st.State == "cancelled" || st.State == "quarantined":
					fail("miss %d ended %s: %s", p.i, st.State, st.Error)
				default:
					if time.Since(start) > time.Duration(r.seconds*float64(time.Second))+time.Minute {
						fail("miss %d still %s a minute after the schedule ended", p.i, st.State)
						continue
					}
					kept = append(kept, p)
				}
			}
			open = kept
			time.Sleep(servePoll)
		}
	}()
	for i := range reqs {
		q := &reqs[i]
		if d := q.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		q.sent = time.Since(start)
		st, err := sub.submit(q.body)
		switch {
		case err != nil:
			fail("request %d: %v", i, err)
		case q.warm >= 0:
			if st.State == "done" && st.CacheHit && bytes.Equal(st.Result, warm[q.warm]) {
				q.done = time.Since(start)
			} else {
				fail("hit %d: state %s, cache hit %v, payload match %v", i, st.State, st.CacheHit, bytes.Equal(st.Result, warm[q.warm]))
			}
		case st.CacheHit:
			fail("miss %d served from cache", i)
		default:
			missCh <- pending{i, st.ID}
		}
	}
	close(missCh)
	wg.Wait()
	r.attempted += len(reqs)
	r.failed += len(problems)
	for _, p := range problems {
		r.check(false, "serve: %s", p)
	}
	return reqs
}

// sampleMisses re-runs a seeded sample of the open loop's misses directly
// and requires each service payload to match the direct Result.
func sampleMisses(r *run, reqs []request) {
	var miss []int
	for i, q := range reqs {
		if q.warm < 0 && q.done > 0 {
			miss = append(miss, i)
		}
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x73616d70))
	for k := 0; k < serveSample && len(miss) > 0; k++ {
		j := rng.IntN(len(miss))
		q := reqs[miss[j]]
		miss = append(miss[:j], miss[j+1:]...)
		s, err := scenario.New(q.cfg)
		if err != nil {
			r.failed++
			r.check(false, "serve: sample miss: %v", err)
			continue
		}
		res, err := s.Run()
		if err != nil {
			r.failed++
			r.check(false, "serve: sample miss: %v", err)
			continue
		}
		want, _ := json.Marshal(res)
		var got bytes.Buffer
		if err := json.Compact(&got, q.result); err != nil || !bytes.Equal(got.Bytes(), want) {
			r.failed++
			r.check(false, "serve: miss payload for seed %d differs from a direct run", q.cfg.Seed)
		}
	}
}

// serviceLayers reports the service's per-layer metrics: decode and cache
// key timed standalone over the workload's request bodies, queue wait and
// run time from /metrics, and journal bytes per job.
func serviceLayers(r *run, srv *server, journal string, in serveInputs) error {
	var decode, key []float64
	for pass := 0; pass < 5; pass++ {
		var dd, kd time.Duration
		for _, q := range in.schedule {
			t0 := time.Now()
			_, cfg, err := service.DecodeRequest(bytes.NewReader(q.body))
			t1 := time.Now()
			if err != nil {
				return err
			}
			if _, err := service.CacheKey(cfg); err != nil {
				return err
			}
			dd += t1.Sub(t0)
			kd += time.Since(t1)
		}
		n := float64(len(in.schedule))
		decode = append(decode, float64(dd.Nanoseconds())/1e3/n)
		key = append(key, float64(kd.Nanoseconds())/1e3/n)
	}
	r.set("service.decode_us", median(decode), "us")
	r.set("service.key_us", median(key), "us")

	c := newClient(srv.url)
	defer c.close()
	body, code, err := c.get("/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("/metrics: HTTP %d: %v", code, err)
	}
	prom := parseProm(body)
	if n := prom["dftserve_queue_wait_seconds_count"]; n > 0 {
		r.set("service.queue_wait_ms", prom["dftserve_queue_wait_seconds_sum"]/n*1e3, "ms")
	}
	if n := prom["dftserve_job_run_seconds_count"]; n > 0 {
		r.set("service.run_ms", prom["dftserve_job_run_seconds_sum"]/n*1e3, "ms")
	}
	fi, err := os.Stat(journal)
	if err != nil {
		return err
	}
	jobs := serveWarm + serveHistory + len(in.schedule)
	r.set("service.journal_bytes_per_job", float64(fi.Size())/float64(jobs), "bytes")
	return nil
}

// parseProm reads the unlabelled samples of a Prometheus text exposition.
func parseProm(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
