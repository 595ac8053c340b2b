package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mmapio"
	"repro/internal/obs"
	"repro/internal/obsserve"
	"repro/internal/stream"
	"repro/internal/weblog"
)

// The traced run rebuilds core.Observatory's wiring from public parts
// so that every layer call can be timed from the benchmark's own code:
// per-record calls (decode, keep, match) feed per-source busy-time
// counters, and batch-granularity calls (ApplyBatch, checkpoint
// capture and write, snapshot, publish) become spans.

// span is one timed call. Times are nanoseconds since the tracer's
// origin; spans of one traced ingest share Run.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// tracer holds spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	next   atomic.Uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the tracer clock: monotonic nanoseconds since origin.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// busy accumulates one layer's busy time and call count across
// goroutines.
type busy struct {
	ns, n atomic.Int64
}

func (b *busy) add(ns, n int64) {
	b.ns.Add(ns)
	b.n.Add(n)
}

// releaseSample: one kept record in this many gets its release wait
// (decoded → folded) measured.
const releaseSample = 64

// timedDecoder wraps a source's decoder; one goroutine owns it.
type timedDecoder struct {
	inner   stream.Decoder
	clock   func() int64
	ns, n   int64
	errs    int64
	decoded []int64 // decode time per record, when tracked
	// src, when set, is the reader under a followed decoder: time spent
	// inside it (waiting for the log to grow) is not decode work.
	src *timedReader
}

func (d *timedDecoder) Next() (weblog.Record, error) {
	var wait0 int64
	if d.src != nil {
		wait0 = d.src.ns
	}
	t0 := d.clock()
	rec, err := d.inner.Next()
	t1 := d.clock()
	d.ns += t1 - t0
	if d.src != nil {
		d.ns -= d.src.ns - wait0
	}
	switch {
	case err == nil:
		if d.n < int64(len(d.decoded)) {
			d.decoded[d.n] = t1
		}
		d.n++
	case err != io.EOF:
		d.errs++
	}
	return rec, err
}

// Offset and HeaderLen forward the inner decoder's resume position, so
// checkpoint capture sees through the wrapper.
func (d *timedDecoder) Offset() int64 { return d.inner.(stream.OffsetTracker).Offset() }

func (d *timedDecoder) HeaderLen() int64 {
	if h, ok := d.inner.(interface{ HeaderLen() int64 }); ok {
		return h.HeaderLen()
	}
	return 0
}

// timedReader times the reads a followed decoder makes of its tail,
// sleeps between polls included.
type timedReader struct {
	r     io.Reader
	clock func() int64
	ns    int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := t.clock()
	n, err := t.r.Read(p)
	t.ns += t.clock() - t0
	return n, err
}

// keepClock wraps one source's preprocessor filter.
type keepClock struct {
	inner  func(*weblog.Record) bool
	clock  func() int64
	ns, n  int64
	kept   int64
	keptAt []int64 // keep time of every releaseSample-th kept record
}

func (k *keepClock) keep(r *weblog.Record) bool {
	t0 := k.clock()
	ok := k.inner(r)
	t1 := k.clock()
	k.ns += t1 - t0
	k.n++
	if ok {
		k.kept++
		if k.kept%releaseSample == 0 {
			if i := k.kept / releaseSample; i < int64(len(k.keptAt)) {
				k.keptAt[i] = t1
			}
		}
	}
	return ok
}

// foldMark is the cumulative folded-record count after one compliance
// fold, for the folded → published wait.
type foldMark struct {
	at  int64
	cum uint64
}

// tracedPipeline is one traced ingest.
type tracedPipeline struct {
	in      *inputs
	tr      *tracer
	run     string
	ingest  uint64 // span id of the ingest, parent of the fold spans
	reg     *obs.Registry
	metrics *stream.Metrics
	srv     *obsserve.Server
	http    *server
	p       *stream.Pipeline
	matcher *agent.CachedMatcher
	enrich  busy
	folds   map[string]*busy
	decs    []*timedDecoder
	keepsMu sync.Mutex
	keeps   []*keepClock
	nextKp  int

	relMu    sync.Mutex
	relWaits []float64 // ms
	foldMu   sync.Mutex
	foldLog  []foldMark
	folded   atomic.Uint64

	ckptMu  sync.Mutex
	capture []float64 // ms
	write   []float64 // ms
	ckptKB  float64
	ckptDir string
}

const seqLocalMask = 1<<44 - 1 // stream's fan-in seq: source<<44 | local

// newTracedPipeline mirrors core.NewObservatory + core.StreamPipeline:
// a fresh registry and metrics, the obsserve server driven by watermark
// advances, the default preprocessing (a preprocessor per source, the
// memoizing matcher), and all five analyzers — each wrapped in a timing
// decorator.
func newTracedPipeline(in *inputs, tr *tracer, run string, srcRecords []int) (*tracedPipeline, error) {
	tp := &tracedPipeline{in: in, tr: tr, run: run, ingest: tr.id(), folds: make(map[string]*busy)}
	tp.reg = obs.NewRegistry()
	m := stream.NewMetrics(tp.reg)
	tp.metrics = m
	tp.srv = obsserve.NewServer(obsserve.Options{Registry: tp.reg, Metrics: m})
	inner, err := stream.NewAnalyzers(stream.AnalyzerNames, stream.AnalyzerOptions{})
	if err != nil {
		tp.srv.Close()
		return nil, err
	}
	analyzers := make([]stream.Analyzer, len(inner))
	for i, a := range inner {
		b := &busy{}
		tp.folds[a.Name()] = b
		analyzers[i] = &timedAnalyzer{inner: a, clock: b, tp: tp, first: i == 0}
	}
	for _, n := range srcRecords {
		tp.keeps = append(tp.keeps, &keepClock{
			inner: weblog.NewPreprocessor().Keep, clock: tr.now,
			keptAt: make([]int64, n/releaseSample+2),
		})
	}
	tp.matcher = agent.NewCachedMatcher(nil)
	tp.p = stream.NewPipeline(stream.Options{
		Analyzers: analyzers,
		Metrics:   m,
		OnAdvance: tp.srv.OnAdvance,
		Keep:      tp.keeps[0].keep,
		NewKeep:   tp.newKeep,
		Enrich:    tp.enrichRecord,
	})
	tp.srv.Attach(tp.p)
	if tp.http, err = serve(tp.srv.Handler()); err != nil {
		tp.p.Close()
		tp.srv.Close()
		return nil, err
	}
	return tp, nil
}

// newKeep hands the fan-in's source runners their filters; runners are
// built in source order, so the i-th call belongs to source i.
func (tp *tracedPipeline) newKeep() func(*weblog.Record) bool {
	tp.keepsMu.Lock()
	defer tp.keepsMu.Unlock()
	k := tp.keeps[tp.nextKp%len(tp.keeps)]
	tp.nextKp++
	return k.keep
}

// enrichRecord is core.StreamPipeline's enrichment, timed.
func (tp *tracedPipeline) enrichRecord(rec *weblog.Record) {
	t0 := tp.tr.now()
	if b, ok := tp.matcher.Match(rec.UserAgent); ok {
		rec.BotName = b.Name
		rec.Category = b.Category.String()
	} else {
		rec.BotName = ""
		rec.Category = ""
	}
	tp.enrich.add(tp.tr.now()-t0, 1)
}

func (tp *tracedPipeline) close() {
	tp.http.close()
	tp.srv.Close()
}

// sources opens the at-rest inputs the way core's file fan-in does:
// map each file, drop the descriptor, decode out of the mapping.
func (tp *tracedPipeline) sources() ([]stream.Source, error) {
	var out []stream.Source
	for _, path := range tp.in.paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		mp, err := mmapio.Map(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		dec, err := stream.NewDecoderBytes(tp.in.format, mp.Bytes(), weblog.CLFOptions{})
		if err != nil {
			mp.Close()
			return nil, err
		}
		td := &timedDecoder{inner: dec, clock: tp.tr.now}
		tp.decs = append(tp.decs, td)
		out = append(out, stream.Source{Name: path, Dec: td, Close: mp.Close})
	}
	return out, nil
}

// runAtRest ingests the at-rest inputs, checkpointing like core's
// durable run when the workload asks for it, and publishes the final
// snapshot as Observatory.Run does.
func (tp *tracedPipeline) runAtRest(ckptDir string) (*stream.Results, error) {
	start := tp.tr.now()
	srcs, err := tp.sources()
	if err != nil {
		tp.p.Close()
		return nil, err
	}
	durable := tp.in.ckptInterval > 0
	var w *checkpoint.Writer
	stop, done := make(chan struct{}), make(chan struct{})
	if durable {
		if w, err = tp.checkpointWriter(ckptDir); err != nil {
			tp.p.Close()
			return nil, err
		}
		go func() {
			defer close(done)
			t := time.NewTicker(tp.in.ckptInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					_ = tp.checkpoint(w, false) // best effort mid-run, as in core
				}
			}
		}()
	} else {
		close(done)
	}
	res, runErr := tp.p.RunSources(context.Background(), srcs)
	close(stop)
	<-done
	if durable {
		if err := tp.checkpoint(w, true); err != nil && runErr == nil {
			runErr = err
		}
	}
	tp.tr.record(span{ID: tp.ingest, Name: "ingest", Start: start, End: tp.tr.now(), Run: tp.run})
	if res != nil {
		tp.srv.Finalize(res)
	}
	return res, runErr
}

// runFollow tails path like the observatory's follow mode until ctx is
// canceled. decodedAt receives each record's decode time.
func (tp *tracedPipeline) runFollow(ctx context.Context, f *os.File, decodedAt []int64) (*stream.Results, error) {
	start := tp.tr.now()
	src := &timedReader{r: stream.NewTailReader(ctx, f, time.Second), clock: tp.tr.now}
	dec, err := stream.NewDecoder(tp.in.format, src, weblog.CLFOptions{})
	if err != nil {
		tp.p.Close()
		return nil, err
	}
	td := &timedDecoder{inner: dec, clock: tp.tr.now, decoded: decodedAt, src: src}
	tp.decs = append(tp.decs, td)
	res, runErr := tp.p.Run(nil, td)
	tp.tr.record(span{ID: tp.ingest, Name: "ingest", Start: start, End: tp.tr.now(), Run: tp.run})
	if res != nil {
		tp.srv.Finalize(res)
	}
	return res, runErr
}

// checkpointWriter opens the checkpoint directory the layer timings
// restore from.
func (tp *tracedPipeline) checkpointWriter(dir string) (*checkpoint.Writer, error) {
	tp.ckptDir = dir
	return checkpoint.NewWriter(dir, core.DefaultCheckpointKeep)
}

// layerCheckpoint takes one checkpoint of the final state on a
// workload that does not checkpoint, after its ingest was measured,
// only so that the checkpoint layer is timed there too.
func (tp *tracedPipeline) layerCheckpoint(dir string) error {
	w, err := tp.checkpointWriter(dir)
	if err != nil {
		return err
	}
	return tp.checkpoint(w, true)
}

// checkpoint is core's captureAndWrite, timed: capture (which quiesces
// the sources) and write (encode plus the atomic file write) are
// separate spans. Mid-run captures without a source table are skipped,
// as in core; final ones are always written.
func (tp *tracedPipeline) checkpoint(w *checkpoint.Writer, final bool) error {
	t0 := tp.tr.now()
	ck, err := tp.p.CaptureCheckpoint()
	t1 := tp.tr.now()
	if err != nil {
		return err
	}
	if len(ck.Sources) == 0 && !final {
		return nil
	}
	state, err := ck.MarshalBinary()
	if err != nil {
		return err
	}
	var recs uint64
	for _, s := range ck.ShardStates {
		recs += s.Records
	}
	path, err := w.Write(&checkpoint.Envelope{
		Meta:  checkpoint.Meta{WrittenUnixNano: time.Now().UnixNano(), Records: recs},
		State: state,
	})
	t2 := tp.tr.now()
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	parent := tp.ingest
	if tp.in.ckptInterval == 0 {
		parent = 0 // taken after the ingest, for the layer timing alone
	}
	tp.tr.record(span{ID: tp.tr.id(), Parent: parent, Name: "checkpoint.capture", Start: t0, End: t1, Run: tp.run})
	tp.tr.record(span{ID: tp.tr.id(), Parent: parent, Name: "checkpoint.write", Start: t1, End: t2, Run: tp.run})
	tp.ckptMu.Lock()
	tp.capture = append(tp.capture, float64(t1-t0)/1e6)
	tp.write = append(tp.write, float64(t2-t1)/1e6)
	tp.ckptKB = float64(info.Size()) / 1024
	tp.ckptMu.Unlock()
	return nil
}

// restoreMs times checkpoint.Latest plus Pipeline.RestoreCheckpoint on
// the run's final checkpoint, into a freshly built pipeline of the same
// shape.
func (tp *tracedPipeline) restoreMs() (float64, error) {
	analyzers, err := stream.NewAnalyzers(stream.AnalyzerNames, stream.AnalyzerOptions{})
	if err != nil {
		return 0, err
	}
	p := stream.NewPipeline(stream.Options{Analyzers: analyzers})
	defer p.Close()
	t0 := tp.tr.now()
	path, env, err := checkpoint.Latest(tp.ckptDir)
	if err != nil || env == nil {
		return 0, fmt.Errorf("no checkpoint to restore in %s: %v", tp.ckptDir, err)
	}
	ck := new(stream.PipelineCheckpoint)
	if err := ck.UnmarshalBinary(env.State); err != nil {
		return 0, fmt.Errorf("restoring %s: %w", path, err)
	}
	if err := p.RestoreCheckpoint(ck); err != nil {
		return 0, fmt.Errorf("restoring %s: %w", path, err)
	}
	t1 := tp.tr.now()
	tp.tr.record(span{ID: tp.tr.id(), Name: "checkpoint.restore", Start: t0, End: t1, Run: tp.run})
	return float64(t1-t0) / 1e6, nil
}

// snapshotMs times Pipeline.Snapshot on the final state: the merge of
// every shard under all shard locks, so also the lock hold.
func (tp *tracedPipeline) snapshotMs() float64 {
	t0 := tp.tr.now()
	tp.p.Snapshot()
	t1 := tp.tr.now()
	tp.tr.record(span{ID: tp.tr.id(), Name: "stream.snapshot", Start: t0, End: t1, Run: tp.run})
	return float64(t1-t0) / 1e6
}

// publishMs times one publication of the final state (snapshot plus
// every view rendered), through a fresh obsserve server's Attach.
func (tp *tracedPipeline) publishMs() float64 {
	s := obsserve.NewServer(obsserve.Options{})
	defer s.Close()
	t0 := tp.tr.now()
	s.Attach(tp.p)
	t1 := tp.tr.now()
	tp.tr.record(span{ID: tp.tr.id(), Name: "obsserve.publish", Start: t0, End: t1, Run: tp.run})
	return float64(t1-t0) / 1e6
}

// publishCount reads the publications counter off the registry.
func (tp *tracedPipeline) publishCount() float64 {
	return float64(tp.reg.Counter("scraperlab_snapshots_published_total", "").Value())
}

// timedAnalyzer decorates one analyzer: its states time every
// ApplyBatch and Advance, and it forwards checkpoint encoding to the
// analyzer it wraps.
type timedAnalyzer struct {
	inner stream.Analyzer
	clock *busy
	tp    *tracedPipeline
	first bool // the first analyzer also samples release and publish waits
}

func (a *timedAnalyzer) Name() string { return a.inner.Name() }

func (a *timedAnalyzer) NewState() stream.ShardState { return a.wrap(a.inner.NewState()) }

func (a *timedAnalyzer) wrap(st stream.ShardState) *timedState {
	ts := &timedState{a: a, inner: st}
	if ba, ok := st.(stream.BatchApplier); ok {
		ts.fold = ba.ApplyBatch
	} else {
		ts.fold = func(recs []weblog.Record, seqs []uint64) {
			for i := range recs {
				st.Apply(&recs[i], seqs[i])
			}
		}
	}
	ts.obs, _ = st.(stream.WatermarkObserver)
	return ts
}

func (a *timedAnalyzer) Snapshot(states []stream.ShardState) any {
	inner := make([]stream.ShardState, len(states))
	for i, st := range states {
		inner[i] = st.(*timedState).inner
	}
	return a.inner.Snapshot(inner)
}

func (a *timedAnalyzer) EncodeState(st stream.ShardState) ([]byte, error) {
	c, ok := a.inner.(stream.StateCodec)
	if !ok {
		return nil, fmt.Errorf("analyzer %q has no state codec", a.Name())
	}
	return c.EncodeState(st.(*timedState).inner)
}

func (a *timedAnalyzer) DecodeState(data []byte) (stream.ShardState, error) {
	c, ok := a.inner.(stream.StateCodec)
	if !ok {
		return nil, fmt.Errorf("analyzer %q has no state codec", a.Name())
	}
	st, err := c.DecodeState(data)
	if err != nil {
		return nil, err
	}
	return a.wrap(st), nil
}

type timedState struct {
	a     *timedAnalyzer
	inner stream.ShardState
	fold  func([]weblog.Record, []uint64)
	obs   stream.WatermarkObserver
}

func (s *timedState) Apply(r *weblog.Record, seq uint64) {
	s.ApplyBatch([]weblog.Record{*r}, []uint64{seq})
}

func (s *timedState) ApplyBatch(recs []weblog.Record, seqs []uint64) {
	tr := s.a.tp.tr
	t0 := tr.now()
	s.fold(recs, seqs)
	t1 := tr.now()
	s.a.clock.add(t1-t0, int64(len(recs)))
	tr.record(span{ID: tr.id(), Parent: s.a.tp.ingest, Name: "stream.fold." + s.a.inner.Name(), Start: t0, End: t1, Run: s.a.tp.run})
	if s.a.first {
		s.a.tp.sampleWaits(seqs, t1)
	}
}

func (s *timedState) Advance(w time.Time) {
	if s.obs == nil {
		return
	}
	t0 := s.a.tp.tr.now()
	s.obs.Advance(w)
	s.a.clock.add(s.a.tp.tr.now()-t0, 0)
}

// sampleWaits records, for one folded run, the release wait of its
// sampled records and the cumulative fold count the publish wait is
// measured against.
func (tp *tracedPipeline) sampleWaits(seqs []uint64, at int64) {
	var waits []float64
	for _, seq := range seqs {
		local := int64(seq & seqLocalMask)
		if local%releaseSample != 0 {
			continue
		}
		src := int(seq >> 44)
		if src >= len(tp.keeps) || local/releaseSample >= int64(len(tp.keeps[src].keptAt)) {
			continue
		}
		if keptAt := tp.keeps[src].keptAt[local/releaseSample]; keptAt > 0 {
			waits = append(waits, float64(at-keptAt)/1e6)
		}
	}
	cum := tp.folded.Add(uint64(len(seqs)))
	tp.foldMu.Lock()
	tp.foldLog = append(tp.foldLog, foldMark{at: at, cum: cum})
	tp.foldMu.Unlock()
	if len(waits) > 0 {
		tp.relMu.Lock()
		tp.relWaits = append(tp.relWaits, waits...)
		tp.relMu.Unlock()
	}
}

// publishWaits pairs every compliance fold with the first publication
// whose records count covers it.
func (tp *tracedPipeline) publishWaits(pubs []publication) []float64 {
	var out []float64
	for _, f := range tp.foldLog {
		at := tp.tr.origin.Add(time.Duration(f.at))
		for _, pub := range pubs {
			if pub.records >= f.cum && !pub.at.Before(at) {
				out = append(out, float64(pub.at.Sub(at))/1e6)
				break
			}
		}
	}
	return out
}
