// Command obsbench is the repository's benchmark: it generates a
// workload's inputs from a seed, drives core.Observatory over a real
// loopback listener the way cmd/scraperlabd does, checks every published
// view against a reference analysis, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics (tracing off); with
// -trace 1 it rebuilds the observatory's wiring from public parts with
// every layer call timed, and reports per-layer metrics beside the
// tracing overhead. See README.md in this directory.
//
// Usage (from the repository root):
//
//	python3 obsbench/run.py --workload estate-fanin --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

func main() {
	workload := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "obsbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed int64, budget time.Duration, trace bool) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	w := &work{dir: filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))}
	defer os.RemoveAll(w.dir)

	genStart := time.Now()
	in, err := buildInputs(workload, seed, budget.Seconds(), filepath.Join(w.dir, "inputs"))
	if err != nil {
		return nil, err
	}
	var ref views
	if in.follow == nil {
		refRes, err := core.StreamAnalyzeAllFiles(context.Background(), in.paths,
			core.StreamOptions{Format: in.format, Shards: 1, Analyzers: stream.AnalyzerNames})
		if err != nil {
			return nil, fmt.Errorf("reference analysis: %w", err)
		}
		if ref, err = referenceViews(refRes); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "obsbench: %s seed %d: %d records generated, reference ready in %.1fs\n",
		workload, seed, in.records, time.Since(genStart).Seconds())
	if in.follow != nil {
		fmt.Fprintf(os.Stderr, "obsbench: live-follow appends %d records at %d/s; event time compressed %.0fx (MaxSkew hold-back %.0f ms wall)\n",
			len(in.follow.lines), followRate, in.follow.compression,
			stream.DefaultMaxSkew.Seconds()/in.follow.compression*1e3)
	}

	l := &ledger{}
	res := &result{Metrics: make(map[string]metric)}
	measureStart := time.Now()
	var st *setupTimer
	e2eBudget := budget / 2
	if !trace {
		st = &setupTimer{in: in, w: w, l: l}
		e2eBudget = budget
	}
	iters, err := endToEnd(in, ref, e2eBudget, w, l, st)
	if err != nil {
		return nil, err
	}
	if st != nil {
		sorted := append([]float64(nil), st.times...)
		sort.Float64s(sorted)
		fmt.Fprintf(os.Stderr, "obsbench: %d set-ups: min %.3f ms, median %.3f ms, max %.3f ms\n",
			len(sorted), sorted[0]*1e3, median(sorted)*1e3, sorted[len(sorted)-1]*1e3)
	}
	if trace {
		if err := tracedRun(in, seed, iters, budget/2, w, l, res); err != nil {
			return nil, err
		}
	} else {
		reportEndToEnd(res, st.times, iters)
	}
	res.Attempted, res.Failed = l.attempted, l.failed
	res.Correct = l.mismatched == 0
	fmt.Fprintf(os.Stderr, "obsbench: %d iteration(s), %d/%d failed, measured in %.1fs\n",
		len(iters), l.failed, l.attempted, time.Since(measureStart).Seconds())
	return res, nil
}

// endToEnd runs the workload's untraced iterations, and st's set-up
// rounds among them.
func endToEnd(in *inputs, ref views, budget time.Duration, w *work, l *ledger, st *setupTimer) ([]iteration, error) {
	if in.follow == nil {
		return runAtRest(in, ref, budget, w, l, st)
	}
	it, err := runFollow(in, w, l, st)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "obsbench: generator ran at most %.1f ms late (budget %v)\n",
		float64(it.lateMax)/1e6, lateBudget)
	return []iteration{it}, nil
}

func reportEndToEnd(res *result, setup []float64, iters []iteration) {
	per := func(f func(it iteration) float64) float64 {
		xs := make([]float64, len(iters))
		for i, it := range iters {
			xs[i] = f(it)
		}
		return median(xs)
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(setup))
	set("records_per_s", "1/s", per(func(it iteration) float64 { return float64(it.records) / it.m.wall.Seconds() }))
	set("cpu_us_per_record", "us", per(func(it iteration) float64 { return cpuPerRecord(it) }))
	set("peak_heap_mb", "MiB", per(func(it iteration) float64 { return float64(it.m.peakHeap) / (1 << 20) }))
	set("allocs_per_record", "count", per(func(it iteration) float64 { return float64(it.m.allocs) / float64(it.records) }))
	var blockP50, blockTail []float64
	for _, it := range iters {
		for b := 0; b+apiBlock <= len(it.apiMs); b += apiBlock {
			p50, tail, _ := p50AndTail(append([]float64(nil), it.apiMs[b:b+apiBlock]...))
			blockP50 = append(blockP50, p50)
			blockTail = append(blockTail, tail)
		}
	}
	// The tail is the lower decile of the block tails: see apiBlock.
	sort.Float64s(blockTail)
	set("api_p50_ms", "ms", median(blockP50))
	set("api_tail_ms", "ms", percentile(blockTail, 0.1))
	set("freshness_p50_ms", "ms", per(func(it iteration) float64 { return it.freshP50 }))
	set("freshness_tail_ms", "ms", per(func(it iteration) float64 { return it.freshTail }))
	fmt.Fprintf(os.Stderr, "obsbench: api tail is the lower decile of the p%g of %d blocks of %d reads (median block p%g %.3f ms)\n",
		tailQuantile(apiBlock)*100, len(blockTail), apiBlock, tailQuantile(apiBlock)*100, median(blockTail))
}

func cpuPerRecord(it iteration) float64 {
	return float64(it.m.cpu) / 1e3 / float64(it.records)
}

// tracedRun measures the traced rebuild for budget (at least once),
// then the layers that are timed outside the ingest: dispatch alone,
// one-goroutine fold replays, memo misses, checkpoint restore,
// snapshot and publish. untraced are the same run's untraced
// iterations, the base of the tracing overhead.
func tracedRun(in *inputs, seed int64, untraced []iteration, budget time.Duration, w *work, l *ledger, res *result) error {
	tr := newTracer()
	var layers []map[string]float64
	var last *tracedIter
	start := time.Now()
	for i := 0; len(layers) == 0 || time.Since(start) < budget; i++ {
		ti, err := tracedIteration(in, tr, fmt.Sprintf("%s-%d-%d", in.workload, seed, i), w, l)
		if err != nil {
			return err
		}
		// The rebuilt wiring must publish exactly what the observatory
		// does.
		l.check("traced vs untraced views", untraced[len(untraced)-1].views, ti.views)
		layers = append(layers, ti.layers)
		last = ti
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	for name := range layers[0] {
		xs := make([]float64, len(layers))
		for i, m := range layers {
			xs[i] = m[name]
		}
		set(name, layerUnit(name), median(xs))
	}

	// Layers timed outside the ingest, on the last traced run's inputs.
	d, err := decodeAll(in.format, last.paths)
	if err != nil {
		return err
	}
	follow := in.follow != nil
	dispNs, dispAllocs := dispatchCost(d, follow)
	set("stream.dispatch.ns_per_record", "ns", dispNs)
	set("stream.dispatch.allocs_per_record", "count", dispAllocs)
	allocs, err := foldAllocs(d)
	if err != nil {
		return err
	}
	for name, a := range allocs {
		set("stream.fold."+name+".allocs_per_record", "count", a)
	}
	set("agent.match.miss_us", "us", missUs(d))

	// The ledger: end-to-end CPU of the traced ingest against the sum
	// of the layers' busy time.
	cpu := float64(last.m.cpu)
	attributed := last.busyNs + dispNs*float64(last.kept) +
		res.Metrics["obsserve.publish.count"].Value*res.Metrics["obsserve.publish.ms"].Value*1e6
	set("ledger.unattributed_frac", "fraction", (cpu-attributed)/cpu)
	untracedCPU := make([]float64, len(untraced))
	for i, it := range untraced {
		untracedCPU[i] = cpuPerRecord(it)
	}
	tracedCPU := make([]float64, 0, len(layers))
	for _, m := range layers {
		tracedCPU = append(tracedCPU, m["trace.cpu_us_per_record"])
	}
	delete(res.Metrics, "trace.cpu_us_per_record")
	set("trace.overhead_frac", "fraction", median(tracedCPU)/median(untracedCPU)-1)

	spans := filepath.Join(filepath.Dir(filepath.Dir(w.dir)), "traces", fmt.Sprintf("%s-seed%d.jsonl", in.workload, seed))
	if err := tr.write(spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "obsbench: %d spans written to %s\n", len(tr.spans), spans)
	return nil
}

// countLines counts the newline-terminated lines in path: an upper
// bound on the records it holds.
func countLines(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return bytes.Count(data, []byte("\n")), nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, ".ns_per_record"):
		return "ns"
	case strings.HasSuffix(name, ".mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, ".view_kb"), strings.HasSuffix(name, ".kb"):
		return "KiB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.HasSuffix(name, "cpu_us_per_record"):
		return "us"
	}
	return "count"
}

// tracedIter is one traced ingest's per-layer numbers.
type tracedIter struct {
	layers map[string]float64
	views  views
	m      measured
	busyNs float64 // summed layer busy time inside the ingest
	kept   int64
	paths  []string // the inputs it ingested
}

func tracedIteration(in *inputs, tr *tracer, run string, w *work, l *ledger) (*tracedIter, error) {
	ckptDir, err := w.fresh("traced-ckpt")
	if err != nil {
		return nil, err
	}
	ti := &tracedIter{paths: in.paths}
	var srcRecords []int
	var (
		f          *os.File
		decodedAt  []int64
		appended   appendResult
		followPath string
	)
	if in.follow != nil {
		srcRecords = []int{len(in.follow.lines)}
	} else {
		for _, p := range in.paths {
			n, err := countLines(p)
			if err != nil {
				return nil, err
			}
			srcRecords = append(srcRecords, n)
		}
	}
	tp, err := newTracedPipeline(in, tr, run, srcRecords)
	if err != nil {
		return nil, err
	}
	defer tp.close()
	sub, err := subscribe(tp.http.base)
	if err != nil {
		tp.p.Close()
		return nil, err
	}
	l.attempted++
	runtime.GC()

	var pres *stream.Results
	var runErr error
	var m *meter
	if in.follow == nil {
		l.attempted += in.records
		m = startMeter()
		pres, runErr = tp.runAtRest(ckptDir)
		ti.m = m.Stop()
	} else {
		fp := in.follow
		dir, err := w.fresh("traced-follow")
		if err != nil {
			return nil, err
		}
		followPath = filepath.Join(dir, filepath.Base(fp.path))
		if f, err = os.Create(followPath); err != nil {
			return nil, err
		}
		defer f.Close()
		if _, err := f.Write(fp.header); err != nil {
			return nil, err
		}
		ti.paths = []string{followPath}
		decodedAt = make([]int64, len(fp.lines))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rf, err := os.Open(followPath)
		if err != nil {
			return nil, err
		}
		defer rf.Close()
		done := make(chan struct{})
		m = startMeter()
		go func() {
			defer close(done)
			pres, runErr = tp.runFollow(ctx, rf, decodedAt)
		}()
		appended = appendOnSchedule(f, fp, m.wall0.Add(20*time.Millisecond))
		l.attempted += len(fp.lines)
		if appended.err != nil {
			cancel()
			<-done
			return nil, appended.err
		}
		if appended.late > 0 {
			l.failed += appended.late
			l.notef("traced generator appended %d records more than %v late", appended.late, lateBudget)
		}
		if err := awaitFollow(tp.metrics, sub, fp); err != nil {
			l.fail("traced: %v", err)
		}
		cancel()
		<-done
		ti.m = m.Stop()
	}
	if runErr != nil {
		l.fail("traced ingest: %v", runErr)
	}
	durable := in.ckptInterval > 0
	if !durable && pres != nil {
		if err := tp.layerCheckpoint(ckptDir); err != nil {
			l.fail("traced: checkpoint for the layer timing: %v", err)
		}
	}
	pubs, dropped := sub.finish(10 * time.Second)
	if dropped {
		l.fail("traced: SSE subscriber dropped before the final snapshot")
	}
	if pres == nil {
		return nil, fmt.Errorf("traced ingest returned no results: %v", runErr)
	}
	c := newClient()
	got, failed, err := fetchViews(c, tp.http.base)
	c.CloseIdleConnections()
	l.attempted += len(stream.AnalyzerNames)
	if failed > 0 {
		l.fail("traced: fetching views: %d failed: %v", failed, err)
	}
	ti.views = got

	lm := make(map[string]float64)
	var decNs, decN, decErrs int64
	for _, d := range tp.decs {
		decNs += d.ns
		decN += d.n
		decErrs += d.errs
	}
	l.failed += int(decErrs)
	var keepNs, keepN, kept int64
	for _, k := range tp.keeps {
		keepNs += k.ns
		keepN += k.n
		kept += k.kept
	}
	ti.kept = kept
	var inBytes float64
	for _, p := range ti.paths {
		if info, err := os.Stat(p); err == nil {
			inBytes += float64(info.Size())
		}
	}
	enrichNs, enrichN := float64(tp.enrich.ns.Load()), float64(tp.enrich.n.Load())
	lm["stream.decode.ns_per_record"] = float64(decNs) / float64(decN)
	lm["stream.decode.mb_per_s"] = inBytes / 1e6 / (float64(decNs) / 1e9)
	lm["stream.decode.errors"] = float64(decErrs)
	lm["weblog.keep.ns_per_record"] = float64(keepNs) / float64(keepN)
	lm["weblog.keep.kept_ratio"] = float64(kept) / float64(keepN)
	lm["agent.match.ns_per_record"] = enrichNs / enrichN
	lm["agent.match.hit_ratio"] = 1 - float64(tp.matcher.Size())/enrichN
	busyNs := float64(decNs+keepNs) + enrichNs
	for name, b := range tp.folds {
		ns := float64(b.ns.Load())
		busyNs += ns
		lm["stream.fold."+name+".ns_per_record"] = ns / float64(kept)
	}
	// The checkpoint layer counts in the ledger only where the ingest
	// checkpoints; elsewhere it is timed after the ingest.
	if durable {
		for _, ms := range tp.capture {
			busyNs += ms * 1e6
		}
		for _, ms := range tp.write {
			busyNs += ms * 1e6
		}
	}
	ti.busyNs = busyNs
	lm["checkpoint.capture_ms"] = median(tp.capture)
	lm["checkpoint.write_ms"] = median(tp.write)
	lm["checkpoint.kb"] = tp.ckptKB
	var restores, snaps, publishes []float64
	for i := 0; i < 3; i++ {
		ms, err := tp.restoreMs()
		if err != nil {
			return nil, err
		}
		restores = append(restores, ms)
	}
	for i := 0; i < 5; i++ {
		snaps = append(snaps, tp.snapshotMs())
		publishes = append(publishes, tp.publishMs())
	}
	lm["checkpoint.restore_ms"] = median(restores)
	lm["stream.snapshot.ms"] = median(snaps)
	lm["obsserve.publish.ms"] = median(publishes)
	lm["obsserve.publish.count"] = tp.publishCount()
	lm["obsserve.view_kb"] = got.kb()

	// Waits along the path a record takes to the published view.
	tail := 0.0
	if in.follow != nil {
		var waits []float64
		for i, at := range appended.appendedAt {
			if decodedAt[i] > 0 {
				waits = append(waits, float64(tr.origin.Add(time.Duration(decodedAt[i])).Sub(at))/1e6)
			}
		}
		tail = median(waits)
	}
	lm["stream.tail.wait_ms"] = tail
	lm["stream.release.wait_ms"] = median(tp.relWaits)
	sort.Slice(pubs, func(i, j int) bool { return pubs[i].at.Before(pubs[j].at) })
	lm["obsserve.publish.wait_ms"] = median(tp.publishWaits(pubs))
	lm["trace.cpu_us_per_record"] = float64(ti.m.cpu) / 1e3 / float64(pres.Records)
	ti.layers = lm
	return ti, nil
}
