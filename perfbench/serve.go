package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/delta"
	"beatbgp/internal/serve"
	"beatbgp/internal/xrand"
)

// Query kinds of the serve workloads.
const (
	kLatency = iota
	kCatchment
	kWhatIf
	kEpoch
	nKinds
)

var kindNames = [nKinds]string{"latency", "catchment", "whatif", "epoch"}

// query is one client request of a serve workload. Every query names
// its epoch or instant explicitly, so its answer does not depend on the
// order two connections deliver it in.
type query struct {
	kind   int
	prefix int
	t      float64 // latency instant (minutes)
	epoch  int     // catchment epoch; the epoch an /epoch POST sets
	whatif serve.WhatIfReq
	due    time.Duration // offset from the start of the stream
}

// serveStack is one built, frozen and listening daemon world.
type serveStack struct {
	w      *core.World
	srv    *serve.Server
	addr   string // the listener, when the stack serves HTTP
	stages map[string]float64
	freeze float64
}

// buildServeStack builds the daemon's no-flag world (seed 42), freezes
// it and, when listen is set, starts the HTTP listener on loopback.
func buildServeStack(listen bool) (*serveStack, error) {
	s, err := core.NewScenario(core.Config{Seed: 42})
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	f0 := time.Now()
	w, err := s.Freeze()
	if err != nil {
		return nil, fmt.Errorf("freeze world: %w", err)
	}
	st := &serveStack{w: w, srv: serve.New(w), stages: map[string]float64{}, freeze: time.Since(f0).Seconds()}
	for _, sr := range s.BuildReport().Stages {
		st.stages[sr.Stage] = sr.Wall.Seconds()
	}
	if listen {
		addr, err := st.srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		st.addr = addr.String()
	}
	return st, nil
}

func (st *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Every request has completed by the time a stack is closed, so the
	// drain has nothing to wait for.
	_ = st.srv.Shutdown(ctx)
}

// epochSpan returns the [start, end) minutes of epoch e.
func epochSpan(seq *delta.Sequence, e int) (float64, float64) {
	end := seq.End()
	if e+1 < seq.Len() {
		end = seq.Epoch(e + 1).Start
	}
	return seq.Epoch(e).Start, end
}

// poisson fills due offsets for a Poisson stream at rate q/s over dur.
func poisson(rng *xrand.Rand, rate float64, dur time.Duration, next func(due time.Duration)) {
	var at float64
	for {
		at += rng.Exp(1 / rate)
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return
		}
		next(due)
	}
}

// wire renders the query as an HTTP/1.1 request to host.
func (q *query) wire(host string) ([]byte, error) {
	var method, target string
	var body []byte
	switch q.kind {
	case kLatency:
		method, target = http.MethodGet, fmt.Sprintf("/latency?prefix=%d&t=%s", q.prefix, strconv.FormatFloat(q.t, 'g', -1, 64))
	case kCatchment:
		method, target = http.MethodGet, fmt.Sprintf("/catchment?prefix=%d&epoch=%d", q.prefix, q.epoch)
	case kWhatIf:
		b, err := json.Marshal(q.whatif)
		if err != nil {
			return nil, err
		}
		method, target, body = http.MethodPost, "/whatif", b
	default:
		method, target, body = http.MethodPost, "/epoch", []byte(fmt.Sprintf(`{"set":%d}`, q.epoch))
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, target, host)
	if body != nil {
		fmt.Fprintf(&buf, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	buf.WriteString("\r\n")
	buf.Write(body)
	return buf.Bytes(), nil
}

// conn is one keep-alive client connection. It writes requests itself
// and parses responses with http.ReadResponse: net/http's client would
// add two goroutine hand-offs per request on a box the daemon shares.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

// do sends one request and reads the whole response, redialling when
// the previous exchange broke the connection.
func (cn *conn) do(q *query) (status int, hash uint64, transport bool) {
	req, err := q.wire(cn.addr)
	if err != nil {
		return 0, 0, true
	}
	if cn.c == nil {
		if cn.c, err = net.Dial("tcp", cn.addr); err != nil {
			cn.c = nil
			return 0, 0, true
		}
		cn.br = bufio.NewReader(cn.c)
	}
	resp, err := cn.exchange(req)
	if err != nil {
		cn.close()
		return 0, 0, true
	}
	if resp.close {
		cn.close()
	}
	return resp.status, bodyHash(resp.body), false
}

type response struct {
	status int
	body   []byte
	close  bool
}

func (cn *conn) exchange(req []byte) (response, error) {
	if _, err := cn.c.Write(req); err != nil {
		return response{}, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{resp.StatusCode, b, resp.Close}, nil
}

func (cn *conn) close() {
	if cn.c != nil {
		cn.c.Close()
		cn.c, cn.br = nil, nil
	}
}

// libAnswer answers the query through the serve library and returns
// the HTTP status and body the daemon must produce for it.
func libAnswer(srv *serve.Server, q *query) (int, []byte) {
	return encodeAnswer(libValue(srv, q))
}

// libValue is libAnswer before encoding.
func libValue(srv *serve.Server, q *query) (any, error) {
	switch q.kind {
	case kLatency:
		return srv.AnswerLatency(q.prefix, q.t)
	case kCatchment:
		return srv.AnswerCatchment(q.prefix, q.epoch)
	case kWhatIf:
		return srv.AnswerWhatIf(q.whatif)
	default:
		e := q.epoch
		return srv.AnswerEpoch(0, &e)
	}
}

// encodeAnswer renders an answer or error as the daemon does.
func encodeAnswer(v any, err error) (int, []byte) {
	code := http.StatusOK
	if err != nil {
		code = http.StatusInternalServerError
		if errors.Is(err, serve.ErrBadQuery) {
			code = http.StatusBadRequest
		}
		v = serve.ErrorResp{Error: err.Error()}
	}
	b, merr := serve.Encode(v)
	if merr != nil {
		return http.StatusInternalServerError, nil
	}
	return code, b
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// outcome is the client's record of one request. Times are offsets
// from the stream start; a request is timed from its due time.
type outcome struct {
	sent, done time.Duration
	status     int
	hash       uint64
	dropped    bool // the waiting room was full when it fell due
	late       bool // still unsent slack after its due time
	transport  bool // connection or read error
}

func (o *outcome) ok() bool { return !o.dropped && !o.late && !o.transport }

// Open-loop client settings.
const (
	// clientConns is the number of connections (and goroutines) issuing
	// load.
	clientConns = 2
	// clientRoom is the waiting room for requests that fall due while
	// both connections are busy: 512 requests are 64 ms of arrivals at
	// 8k q/s, well past a transient stall, so a full room means the
	// backlog is growing.
	clientRoom = 512
	// lateSlack is how late after its due time a request may still be
	// sent; later ones are skipped and count as failed.
	lateSlack = 100 * time.Millisecond
)

// loopStats is what the dispatcher itself observed.
type loopStats struct {
	backlogMax int // most requests due but not yet complete
	backlogEnd int // waiting-room depth when the last request fell due
}

// openLoop offers qs to the daemon at addr on their due times, whether
// or not earlier requests have completed, over clientConns keep-alive
// connections. It returns one outcome per query. Spans (when tr is
// non-nil) are "client.request" from due to done with a child
// "client.http" from send to done; the request id is the query index.
func openLoop(addr string, qs []query, tr *tracer) ([]outcome, loopStats) {
	out := make([]outcome, len(qs))
	room := make(chan int, clientRoom)
	var pending atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := &conn{addr: addr}
			defer cn.close()
			for i := range room {
				q, o := &qs[i], &out[i]
				now := time.Since(start)
				if now-q.due > lateSlack {
					o.late = true
					pending.Add(-1)
					continue
				}
				o.sent = now
				o.status, o.hash, o.transport = cn.do(q)
				o.done = time.Since(start)
				pending.Add(-1)
				if tr != nil {
					root := tr.add("client.request", -1, i, start.Add(q.due), start.Add(o.done))
					tr.add("client.http", root, i, start.Add(o.sent), start.Add(o.done))
				}
			}
		}()
	}
	var ls loopStats
	timer := newPreciseTimer()
	defer timer.close()
	for i := range qs {
		waitUntil(timer, start.Add(qs[i].due))
		if b := int(pending.Add(1)); b > ls.backlogMax {
			ls.backlogMax = b
		}
		select {
		case room <- i:
		default:
			out[i].dropped = true
			pending.Add(-1)
		}
	}
	ls.backlogEnd = len(room)
	close(room)
	wg.Wait()
	return out, ls
}

// waitUntil sleeps until t on the precise timer.
func waitUntil(timer *preciseTimer, t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		timer.sleep(d)
	}
}

// checkAnswers byte-compares HTTP answers against library answers from
// ind, a Server independent of the daemon's over the same world: every
// non-200 response and a seeded sample of the rest. It returns the
// number checked.
func checkAnswers(res *result, ind *serve.Server, qs []query, out []outcome, seed uint64, sample int) int {
	rng := xrand.Derive(seed, 0xC4EC5)
	pick := map[int]bool{}
	for i := range out {
		if out[i].ok() && out[i].status != http.StatusOK {
			pick[i] = true
		}
	}
	for k := 0; k < sample && k < len(qs); k++ {
		pick[rng.Intn(len(qs))] = true
	}
	checked := 0
	for i := range qs {
		if !pick[i] || !out[i].ok() {
			continue
		}
		code, body := libAnswer(ind, &qs[i])
		checked++
		if code != out[i].status || bodyHash(body) != out[i].hash {
			res.fail("query %d (%s): HTTP %d differs from library %d %q", i, kindNames[qs[i].kind], out[i].status, code, body)
		}
	}
	return checked
}
