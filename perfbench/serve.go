package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/layio"
	"repro/internal/netlist"
	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	serveProfile = "tiny"
	serveWorkers = 2
	// qualityFresh is how many fresh jobs the stream must finish: the first
	// qualityFresh are the fixed set critical_path_ps is taken over, and they
	// give job_p90_ms ten samples beyond it.
	qualityFresh = 100
	// recentFresh is how far back a resubmission may reach. Every hit is
	// then answered from the in-memory result cache, so the share of disk
	// reads cannot drift with the length of the run.
	recentFresh = 16
	// ledgerRequests bounds how many requests enter the determinism ledger.
	ledgerRequests = 120
	// serveSetupReps is how many times a serve-mix run sets the service up.
	serveSetupReps = 100
	// serveHardLimit stops a stream that has not finished its fresh jobs.
	serveHardLimit = 150 * time.Second
	// directFlows is how many of serve-mix's fresh designs the traced run
	// also runs directly, for the counts.
	directFlows = 8
)

type reqKind int

const (
	reqFresh reqKind = iota
	reqHit
	reqPortfolio
)

// request is one client submission: a fresh inline netlist, an exact
// resubmission of an earlier fresh request, or a seeds4 portfolio.
type request struct {
	kind   reqKind
	d      design // reqFresh, reqPortfolio: the generated input
	body   []byte
	nl     *netlist.Netlist // the netlist as the service parses it
	origin int              // reqHit: index of the resubmitted request in the submitter's history
}

// inline serializes a netlist for an inline submission and parses it back,
// so layouts are checked against exactly what the service received.
func inline(nl *netlist.Netlist) (string, *netlist.Netlist, error) {
	var buf bytes.Buffer
	if err := netlist.WriteNet(&buf, nl); err != nil {
		return "", nil, err
	}
	parsed, err := netlist.ParseNet(bytes.NewReader(buf.Bytes()))
	return buf.String(), parsed, err
}

func freshRequest(d design, nl *netlist.Netlist) (request, error) {
	text, parsed, err := inline(nl)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(server.JobRequest{Netlist: text, Tracks: d.tracks, Config: d.job()})
	return request{kind: reqFresh, d: d, body: body, nl: parsed}, err
}

func portfolioRequest(d design, nl *netlist.Netlist) (request, error) {
	text, parsed, err := inline(nl)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(server.PortfolioRequest{Netlist: text, Tracks: d.tracks, Config: d.job(),
		Matrix: portfolio.Matrix{Preset: "seeds4"}})
	return request{kind: reqPortfolio, d: d, body: body, nl: parsed}, err
}

// outcome is what one request produced, as the client saw it.
type outcome struct {
	req       request
	latency   float64            // ms from submission to the client seeing it done
	job       server.JobStatus   // reqFresh, reqHit: the final status
	group     server.GroupStatus // reqPortfolio: the final status
	layoutSHA string
	jobs      []server.JobStatus // jobs that ran an optimizer (fresh job, portfolio members)
	err       error
}

// service is an in-process fpgaprd: a store in its own directory, the job
// server with its in-process workers, and an HTTP listener on loopback.
type service struct {
	dir    string
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startService() (*service, error) {
	dir, err := scratchDir("serve-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "data"), 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, st: st, srv: server.New(server.Config{Workers: serveWorkers, Store: st}),
		served: make(chan error, 1), base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for it, stops the workers and removes the
// store.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// call makes one request and returns the status code and body.
func (s *service) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get fetches path, requiring 200, and decodes it into v unless v is nil.
func (s *service) get(path string, v any) ([]byte, error) {
	code, data, err := s.call(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(data))
	}
	if v != nil {
		err = json.Unmarshal(data, v)
	}
	return data, err
}

// submit posts body to path and, unless the service answers done at once,
// follows the event stream until it ends, which the service does when the
// job or group is terminal. It returns the latency from submission to that
// point and decodes the final status into v.
func (s *service) submit(path string, body []byte, v any) (float64, error) {
	start := time.Now()
	code, data, err := s.call(http.MethodPost, path, body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return 0, fmt.Errorf("POST %s: %d %s", path, code, bytes.TrimSpace(data))
	}
	var id struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &id); err != nil {
		return 0, err
	}
	if code == http.StatusAccepted {
		if _, err := s.get(path+"/"+id.ID+"/events", nil); err != nil {
			return 0, err
		}
	}
	latency := msSince(start)
	_, err = s.get(path+"/"+id.ID, v)
	return latency, err
}

// checkLayout parses a served layout against the submitted netlist.
func checkLayout(text []byte, req request) (string, error) {
	a, err := exper.ArchFor(req.nl, req.d.tracks)
	if err != nil {
		return "", err
	}
	if _, _, err := layio.Read(bytes.NewReader(text), a, req.nl); err != nil {
		return "", fmt.Errorf("served layout: %w", err)
	}
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:]), nil
}

// execute submits one request and waits until it is done. Its output is
// checked after the stream (see check), so that checking adds no load while
// other requests are being timed.
func (s *service) execute(req request, hist []outcome) outcome {
	oc := outcome{req: req}
	switch req.kind {
	case reqFresh, reqHit:
		if req.kind == reqHit {
			oc.req = hist[req.origin].req
			oc.req.kind, oc.req.origin = reqHit, req.origin
		}
		oc.latency, oc.err = s.submit("/v1/jobs", oc.req.body, &oc.job)
	case reqPortfolio:
		oc.latency, oc.err = s.submit("/v1/portfolios", req.body, &oc.group)
	}
	return oc
}

// check validates what the service served for hist[k]: its state, its
// layout against the submitted netlist, and for a cache hit the same layout
// bytes as the original run.
func (s *service) check(hist []outcome, k int) error {
	oc := &hist[k]
	if oc.req.kind == reqPortfolio {
		return s.checkPortfolio(oc)
	}
	st := oc.job
	if st.State != server.StateDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	text, err := s.get("/v1/jobs/"+st.ID+"/layout", nil)
	if err != nil {
		return err
	}
	if oc.layoutSHA, err = checkLayout(text, oc.req); err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	if oc.req.kind == reqHit {
		if !st.Cached {
			return fmt.Errorf("resubmission %s was not served from the cache", st.ID)
		}
		if want := hist[oc.req.origin].layoutSHA; oc.layoutSHA != want {
			return fmt.Errorf("cache hit %s served layout %s, the original run served %s", st.ID, oc.layoutSHA, want)
		}
		return nil
	}
	oc.jobs = []server.JobStatus{st}
	return nil
}

func (s *service) checkPortfolio(oc *outcome) error {
	g := oc.group
	if g.State != server.StateDone || g.Champion == nil {
		return fmt.Errorf("portfolio %s ended %s without a champion", g.ID, g.State)
	}
	for _, m := range g.Members {
		var st server.JobStatus
		if _, err := s.get("/v1/jobs/"+m.Job, &st); err != nil {
			return err
		}
		if st.State != server.StateDone {
			return fmt.Errorf("portfolio %s member %d ended %s", g.ID, m.Index, st.State)
		}
		oc.jobs = append(oc.jobs, st)
	}
	text, err := s.get("/v1/portfolios/"+g.ID+"/layout", nil)
	if err != nil {
		return err
	}
	sha, err := checkLayout(text, oc.req)
	oc.layoutSHA = fmt.Sprintf("champion=%d %s", *g.Champion, sha)
	return err
}

// stream runs a closed-loop submitter: it submits the next request only
// after the previous one is done. Once the submitter stops, it checks every
// output. It returns the history and the wall time of the stream itself.
func (s *service) stream(next func([]outcome) (request, bool, error)) ([]outcome, time.Duration, error) {
	start := time.Now()
	var hist []outcome
	for {
		req, ok, err := next(hist)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		hist = append(hist, s.execute(req, hist))
	}
	wall := time.Since(start)
	for k := range hist {
		if hist[k].err == nil {
			hist[k].err = s.check(hist, k)
		}
	}
	return hist, wall, nil
}

// mixBlock is serve-mix's composition, repeated in seeded shuffles: 14
// fresh requests (2 on the negotiated and 2 on the lagrange backend), 4
// exact resubmissions and 2 seeds4 portfolios in every 20 requests. A fixed
// block keeps the mix the same in every run, so that throughput and
// latency do not wander with how many portfolios a seed happens to draw.
var mixBlock = func() []request {
	var b []request
	for i := 0; i < 14; i++ {
		r := request{kind: reqFresh}
		switch i {
		case 0, 1:
			r.d.backend = droute.BackendNegotiated
		case 2, 3:
			r.d.backend = droute.BackendLagrange
		}
		b = append(b, r)
	}
	for i := 0; i < 4; i++ {
		b = append(b, request{kind: reqHit})
	}
	return append(b, request{kind: reqPortfolio}, request{kind: reqPortfolio})
}()

// mixGen is serve-mix's seeded request stream, in shuffled mixBlocks. A
// resubmission repeats one of the recentFresh latest fresh requests. The
// sequence depends only on the seed; the clock decides only where it stops,
// once the budget is spent and qualityFresh fresh jobs are done.
func mixGen(seed int64, start time.Time, budget time.Duration) func([]outcome) (request, bool, error) {
	rng := rand.New(rand.NewSource(deriveSeed(seed, 100, 0)))
	var block []request
	var fresh []int
	return func(hist []outcome) (request, bool, error) {
		elapsed := time.Since(start)
		if elapsed > serveHardLimit || (elapsed >= budget && len(fresh) >= qualityFresh) {
			return request{}, false, nil
		}
		if len(block) == 0 {
			block = append(block, mixBlock...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		next := block[0]
		block = block[1:]
		n := len(hist)
		if next.kind == reqHit && len(fresh) > 0 {
			recent := fresh[max(0, len(fresh)-recentFresh):]
			return request{kind: reqHit, origin: recent[rng.Intn(len(recent))]}, true, nil
		}
		// A resubmission drawn before any fresh request becomes one.
		d := design{profile: serveProfile, seed: deriveSeed(seed, 1, n), tracks: exper.DefaultTracks,
			timing: true, backend: next.d.backend}
		nl, err := d.netlist()
		if err != nil {
			return request{}, false, err
		}
		if next.kind == reqPortfolio {
			req, err := portfolioRequest(d, nl)
			return req, err == nil, err
		}
		fresh = append(fresh, n)
		req, err := freshRequest(d, nl)
		return req, err == nil, err
	}
}

// serveSamples are a stream's measurements.
type serveSamples struct {
	fresh, hits, groups []float64 // client latencies, ms
	runMS, wcd          []float64 // fresh jobs' run wall and, for the quality set, critical path
	queueWait, runWall  []float64 // server-side, every optimizer job
	overhead            []float64 // fresh: client latency minus server submit→done
	requests            int
}

// collect folds a stream's history into the run: failures are counted, the
// determinism ledger is fed, and the samples are returned.
func collect(r *run, hist []outcome) *serveSamples {
	s := &serveSamples{}
	for k, oc := range hist {
		s.requests++
		r.attempt(oc.err)
		if oc.err != nil {
			continue
		}
		if k < ledgerRequests && oc.req.kind != reqHit {
			r.ledger.check(fmt.Sprintf("request%d", k), oc.layoutSHA)
		}
		for _, st := range oc.jobs {
			s.queueWait = append(s.queueWait, msBetween(st.Created, *st.Started))
			s.runWall = append(s.runWall, msBetween(*st.Started, *st.Finished))
		}
		switch oc.req.kind {
		case reqFresh:
			if len(s.fresh) < qualityFresh {
				s.wcd = append(s.wcd, oc.job.Result.WCDPs)
			}
			s.fresh = append(s.fresh, oc.latency)
			s.runMS = append(s.runMS, oc.job.Result.WallMS)
			s.overhead = append(s.overhead, oc.latency-msBetween(oc.job.Created, *oc.job.Finished))
		case reqHit:
			s.hits = append(s.hits, oc.latency)
		case reqPortfolio:
			s.groups = append(s.groups, oc.latency)
		}
	}
	return s
}

// setServer reports the server-layer numbers of a stream.
func (s *serveSamples) setServer(r *run, svc *service) error {
	var st server.Stats
	if _, err := svc.get("/statsz", &st); err != nil {
		return err
	}
	r.set("server.queue_wait_ms", median(s.queueWait))
	r.set("server.run_ms", median(s.runWall))
	r.set("server.overhead_ms", median(s.overhead))
	r.set("portfolio.group_ms", median(s.groups))
	r.set("server.cache_hit_frac", ratio(st.CacheHits, st.Submitted))
	r.set("server.optimizer_runs", float64(st.Runs))
	return nil
}

// serveMix is the serving workload.
func serveMix(r *run) error {
	if r.trace {
		return serveMixTraced(r)
	}
	var setups []float64
	var svc *service
	for i := 0; i < serveSetupReps; i++ {
		start := time.Now()
		s, err := startService()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == serveSetupReps-1 {
			svc = s
		} else if err := s.close(); err != nil {
			return err
		}
	}
	hist, wall, err := svc.stream(mixGen(r.seed, time.Now(), r.seconds))
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s := collect(r, hist)
	p90, err := percentile(s.fresh, 90)
	if err != nil {
		return fmt.Errorf("job_p90_ms: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.set("run_s", median(s.runMS)/1000)
	r.set("critical_path_ps", geomean(s.wcd))
	r.set("peak_rss_mb", rss)
	r.set("job_p50_ms", median(s.fresh))
	r.set("job_p90_ms", p90)
	r.set("hit_p50_ms", median(s.hits))
	r.set("jobs_per_s", float64(s.requests)/wall.Seconds())
	return nil
}

// serveMixTraced is serve-mix's traced run: the same stream, then direct
// flows of its first fresh designs for the exact counts, and the probes on
// the first of them.
func serveMixTraced(r *run) error {
	start := time.Now()
	svc, err := startService()
	if err != nil {
		return err
	}
	hist, _, err := svc.stream(mixGen(r.seed, time.Now(), r.seconds))
	if err == nil {
		err = collect(r, hist).setServer(r, svc)
	}
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	untraced := time.Since(start)

	c := &counts{}
	var first *flow
	for _, oc := range hist {
		if c.designs == directFlows {
			break
		}
		if oc.req.kind != reqFresh {
			continue
		}
		f, err := oc.req.d.flow(first == nil)
		if err != nil {
			return err
		}
		r.attempt(f.check())
		r.ledger.check(fmt.Sprintf("direct%d", c.designs), f.digest())
		c.add(f)
		if first == nil {
			first = f
		}
	}
	t := timings{}
	if err := probeAll(r, t, first, c); err != nil {
		return err
	}
	t.set(r)
	r.set("trace.overhead_frac", (time.Since(start)-untraced).Seconds()/untraced.Seconds())
	return nil
}

// serveEpisode serves a fixed list of requests from a closed-loop submitter
// on a fresh service and reports the server-layer numbers. The sim
// workloads' traced runs use it, so that every layer is measured on their
// own design.
func serveEpisode(r *run, reqs []request) error {
	svc, err := startService()
	if err != nil {
		return err
	}
	hist, _, err := svc.stream(func(hist []outcome) (request, bool, error) {
		if len(hist) == len(reqs) {
			return request{}, false, nil
		}
		return reqs[len(hist)], true, nil
	})
	if err == nil {
		err = collect(r, hist).setServer(r, svc)
	}
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	return err
}
