package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// server is an HTTP handler served on a real loopback listener, the
// way cmd/scraperlabd serves the observatory.
type server struct {
	ln   net.Listener
	http *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{ln: ln, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close drops every connection, SSE streams included, and waits for the
// serve loop to exit.
func (s *server) close() {
	_ = s.http.Close()
	<-s.done
}

// daemon is one observatory behind a loopback listener.
type daemon struct {
	o   *core.Observatory
	srv *server
}

// daemonOptions builds the observatory options a workload runs with:
// every analyzer, mmap left at auto, the daemon's defaults elsewhere.
func daemonOptions(in *inputs, paths []string, follow bool, ckptDir string) core.ObservatoryOptions {
	opts := core.ObservatoryOptions{
		Stream: core.StreamOptions{Format: in.format, Analyzers: stream.AnalyzerNames},
		Paths:  paths,
		Follow: follow,
	}
	if ckptDir != "" {
		opts.Stream.CheckpointDir = ckptDir
		opts.Stream.CheckpointInterval = in.ckptInterval
	}
	return opts
}

func startDaemon(opts core.ObservatoryOptions) (*daemon, error) {
	o, err := core.NewObservatory(opts)
	if err != nil {
		return nil, err
	}
	srv, err := serve(o.Handler())
	if err != nil {
		o.Close()
		return nil, err
	}
	return &daemon{o: o, srv: srv}, nil
}

func (d *daemon) close() {
	d.srv.close()
	d.o.Close()
}

// client is one keep-alive HTTP client: a single loopback connection
// reused across requests.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// get fetches url into memory, failing on transport errors and non-2xx
// statuses.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// views maps analyzer name to its compact JSON view.
type views map[string][]byte

// referenceViews renders results the way /api/v1/<analyzer> does.
func referenceViews(res *stream.Results) (views, error) {
	out := make(views)
	for _, name := range res.Names() {
		b, err := json.Marshal(stream.JSONView(res.Get(name)))
		if err != nil {
			return nil, err
		}
		out[name] = b
	}
	return out, nil
}

// fetchViews reads every analyzer's published view over HTTP.
func fetchViews(c *http.Client, base string) (views, int, error) {
	out := make(views)
	failed := 0
	var firstErr error
	for _, name := range stream.AnalyzerNames {
		body, err := get(c, base+"/api/v1/"+name)
		if err == nil {
			var env struct {
				Data json.RawMessage `json:"data"`
			}
			if err = json.Unmarshal(body, &env); err == nil {
				var buf bytes.Buffer
				if err = json.Compact(&buf, env.Data); err == nil {
					out[name] = buf.Bytes()
					continue
				}
			}
		}
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	return out, failed, firstErr
}

// diffViews lists the analyzers whose views differ between want and got.
func diffViews(want, got views) []string {
	var bad []string
	for _, name := range stream.AnalyzerNames {
		if !bytes.Equal(want[name], got[name]) {
			bad = append(bad, name)
		}
	}
	return bad
}

func (v views) kb() float64 {
	n := 0
	for _, b := range v {
		n += len(b)
	}
	return float64(n) / 1024
}

// publication is one snapshot announced on the SSE feed.
type publication struct {
	at      time.Time
	records uint64
	done    bool
}

// subscriber reads one /events SSE stream and keeps every publication
// it announces. It counts as dropped if the stream ends before the
// final (done) snapshot arrives.
type subscriber struct {
	resp  *http.Response
	mu    sync.Mutex
	pubs  []publication
	final chan struct{}
	ended chan struct{}
	err   error
}

// subscribe opens /events and returns once the opening snapshot frame
// has arrived, so every later publication is seen.
func subscribe(base string) (*subscriber, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /events: %s", resp.Status)
	}
	s := &subscriber{resp: resp, final: make(chan struct{}), ended: make(chan struct{})}
	opened := make(chan struct{})
	go s.read(opened)
	select {
	case <-opened:
		return s, nil
	case <-s.ended:
		return nil, fmt.Errorf("events stream ended before its opening frame: %v", s.err)
	case <-time.After(10 * time.Second):
		resp.Body.Close()
		<-s.ended
		return nil, fmt.Errorf("no opening frame on /events")
	}
}

func (s *subscriber) read(opened chan struct{}) {
	defer close(s.ended)
	br := bufio.NewReaderSize(s.resp.Body, 1<<16)
	var event string
	first := true
	finalSeen := false
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			s.err = err
			return
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = strings.TrimSpace(string(line[len("event: "):]))
		case bytes.HasPrefix(line, []byte("data: ")) && event == "snapshot":
			// The opening frame: every later publication is a delta.
			if first {
				first = false
				close(opened)
			}
		case bytes.HasPrefix(line, []byte("data: ")) && event == "delta":
			pub, err := parsePublication(line[len("data: "):])
			if err != nil {
				s.err = err
				return
			}
			s.mu.Lock()
			s.pubs = append(s.pubs, pub)
			s.mu.Unlock()
			if pub.done && !finalSeen {
				finalSeen = true
				close(s.final)
			}
		}
	}
}

// parsePublication reads at, records and done off one SSE delta line
// without decoding the analyzer views it may carry, which run to
// megabytes: the benchmark's own parsing must not compete with the
// ingest it measures. The payload is a JSON object with sorted keys —
// "at" first, the top-level "done" and "records" after the nested
// "changed" views — so the last occurrence of each key is the top-level
// one.
func parsePublication(data []byte) (publication, error) {
	var pub publication
	field := func(key string) ([]byte, error) {
		i := bytes.LastIndex(data, []byte(`"`+key+`":`))
		if i < 0 {
			return nil, fmt.Errorf("SSE payload without %q", key)
		}
		v := data[i+len(key)+3:]
		if end := bytes.IndexAny(v, ",}"); end >= 0 {
			v = v[:end]
		}
		return v, nil
	}
	if !bytes.HasPrefix(data, []byte(`{"at":"`)) {
		return pub, fmt.Errorf("SSE payload does not start with its timestamp")
	}
	end := bytes.IndexByte(data[7:], '"')
	if end < 0 {
		return pub, fmt.Errorf("unterminated SSE timestamp")
	}
	at, err := time.Parse(time.RFC3339Nano, string(data[7:7+end]))
	if err != nil {
		return pub, err
	}
	pub.at = at
	rec, err := field("records")
	if err != nil {
		return pub, err
	}
	if pub.records, err = strconv.ParseUint(string(rec), 10, 64); err != nil {
		return pub, err
	}
	done, err := field("done")
	if err != nil {
		return pub, err
	}
	pub.done = string(done) == "true"
	return pub, nil
}

// waitRecords blocks until a publication covers n records or timeout
// passes.
func (s *subscriber) waitRecords(n uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		ok := len(s.pubs) > 0 && s.pubs[len(s.pubs)-1].records >= n
		s.mu.Unlock()
		if ok {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// finish waits for the final snapshot, closes the stream and returns
// the publications and whether the subscriber was dropped before the
// final frame.
func (s *subscriber) finish(timeout time.Duration) ([]publication, bool) {
	dropped := false
	select {
	case <-s.final:
	case <-s.ended:
		dropped = true
	case <-time.After(timeout):
		dropped = true
	}
	s.resp.Body.Close()
	<-s.ended
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pubs, dropped
}
