package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

const (
	// A run times set-up setupRounds × setupPerRound times and reports
	// the median. The rounds are spread over the run, between ingests at
	// rest and between API phases when following, where nothing else
	// runs: taken in one burst, the run-to-run spread of the median
	// followed the host's load in that half second, 10–30% apart.
	setupRounds   = 5
	setupPerRound = 13
	// apiReads is how many closed-loop GETs each API phase makes, and
	// apiPhases how many ingests are followed by one (a live-follow
	// session makes all the reads after its one session). The reads are
	// cut into blocks of apiBlock. A block's tail is its p90, the highest
	// percentile with ten samples beyond it. The run reports the median
	// block p50 and the lower decile of the block tails: on a shared
	// 2-vCPU VM whole minutes of neighbour load double a share of these
	// 1 ms reads, so pooled over a run the p99 moved by 31–43% and the
	// p95 by 45–88% between runs of the same code, with or without the
	// collector running during the reads, and even the median block p90
	// doubled in a loaded minute. The quieter blocks still carry the
	// serving path's own tail; the single quietest one alone spread by
	// up to 29% between runs.
	apiReads  = 800
	apiPhases = 5
	apiBlock  = 100
	// apiPause separates the phases of a live-follow run, whose reads
	// would otherwise all fall into the same few seconds; at rest the
	// ingests between phases spread them out.
	apiPause = 3 * time.Second
	// apiWarmup reads precede the timed ones on the same connection.
	apiWarmup = 50
	// apiEndpoint is the one endpoint the API phase reads: mixing views
	// of different sizes would make the latency distribution bimodal.
	apiEndpoint = "/api/v1/compliance"
)

// ledger counts attempted and failed operations and whether every
// output matched its reference.
type ledger struct {
	attempted, failed int
	mismatched        int // views that differ from their reference
}

func (l *ledger) fail(format string, args ...any) {
	l.failed++
	l.notef(format, args...)
}

func (l *ledger) notef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obsbench: "+format+"\n", args...)
}

// check compares published views against the reference, counting one
// attempt per analyzer and one failure per mismatch.
func (l *ledger) check(what string, want, got views) {
	l.attempted += len(stream.AnalyzerNames)
	for _, name := range diffViews(want, got) {
		l.failed++
		l.mismatched++
		l.notef("%s: %s view differs from the reference", what, name)
	}
}

// iteration is one measured ingest through a fresh observatory.
type iteration struct {
	m         measured
	records   uint64
	apiMs     []float64 // API read latencies
	freshP50  float64   // ms
	freshTail float64
	views     views
	// checkpoints is how many checkpoints a durable ingest wrote.
	checkpoints int
	// follow-only
	lateMax time.Duration
}

// work is a run's working space under the checkout.
type work struct {
	dir string
	n   int
}

// fresh returns a new empty directory.
func (w *work) fresh(prefix string) (string, error) {
	w.n++
	dir := filepath.Join(w.dir, fmt.Sprintf("%s-%d", prefix, w.n))
	return dir, os.MkdirAll(dir, 0o755)
}

// measureSetup times what the user waits through before the first
// record is ingested: observatory construction, the listener coming up
// and answering a health probe, and a whole Run over the set-up copies
// of the inputs, which hold one record each. That Run is core's own
// start and end of an ingest: a durable run's look for a checkpoint to
// restore, the inputs opened or mapped, the sources started, the
// record folded, and the final snapshot published (and, when durable,
// checkpointed). A followed log is tailed under an already canceled
// context, so the tail reads what the file holds and ends.
func measureSetup(in *inputs, w *work, l *ledger, reps int) ([]float64, error) {
	follow := in.follow != nil
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()
	if follow {
		ctx = canceled
	}
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		ckpt := ""
		if in.ckptInterval != 0 {
			dir, err := w.fresh("setup-ckpt")
			if err != nil {
				return nil, err
			}
			ckpt = dir
		}
		runtime.GC()
		l.attempted++
		t0 := time.Now()
		d, err := startDaemon(daemonOptions(in, in.setupPaths, follow, ckpt))
		if err != nil {
			return nil, err
		}
		c := newClient()
		if _, err := get(c, d.srv.base+"/healthz"); err != nil {
			l.fail("setup %d: healthz: %v", i, err)
		}
		res, err := d.o.Run(ctx)
		elapsed := time.Since(t0)
		if err != nil {
			l.fail("setup %d: %v", i, err)
		} else if res.Ingest != nil && res.Ingest.Decoded != uint64(len(in.setupPaths)) {
			l.fail("setup %d: decoded %d records from %d one-record inputs", i, res.Ingest.Decoded, len(in.setupPaths))
		}
		c.CloseIdleConnections()
		d.close()
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

// setupTimer takes a run's set-up rounds; nil takes none.
type setupTimer struct {
	in     *inputs
	w      *work
	l      *ledger
	times  []float64
	rounds int
	err    error
}

// round times one round of set-ups, unless every round is taken.
func (st *setupTimer) round() {
	if st == nil || st.rounds == setupRounds || st.err != nil {
		return
	}
	st.rounds++
	times, err := measureSetup(st.in, st.w, st.l, setupPerRound)
	st.times = append(st.times, times...)
	st.err = err
}

// roundIfDue times a round once elapsed reaches the round's share of
// budget, so that the rounds spread evenly over it.
func (st *setupTimer) roundIfDue(elapsed, budget time.Duration) {
	if st != nil && elapsed >= time.Duration(st.rounds)*budget/setupRounds {
		st.round()
	}
}

// finish takes the rounds the run had no room for.
func (st *setupTimer) finish() error {
	if st == nil {
		return nil
	}
	for st.rounds < setupRounds && st.err == nil {
		st.round()
	}
	return st.err
}

// runAtRest ingests the workload through fresh observatories until
// budget has passed (at least once), reading the API after each ingest
// and checking every published view against the reference. Set-up
// rounds follow ingests, spread evenly over budget.
func runAtRest(in *inputs, ref views, budget time.Duration, w *work, l *ledger, st *setupTimer) ([]iteration, error) {
	var iters []iteration
	start := time.Now()
	for len(iters) == 0 || time.Since(start) < budget {
		it, err := atRestIteration(in, ref, w, l, len(iters) < apiPhases)
		if err != nil {
			return nil, err
		}
		// A durable ingest captures once per interval and once at the
		// end; the first tick comes an interval after its sources start.
		if in.ckptInterval != 0 {
			if n := int(it.m.wall / in.ckptInterval); it.checkpoints < n || it.checkpoints > n+1 {
				l.fail("ingest %d wrote %d checkpoints in %.2f s; a %v cadence calls for %d or %d",
					len(iters)+1, it.checkpoints, it.m.wall.Seconds(), in.ckptInterval, n, n+1)
			}
		}
		iters = append(iters, it)
		ckpts := ""
		if in.ckptInterval != 0 {
			ckpts = fmt.Sprintf(", %d checkpoints", it.checkpoints)
		}
		fmt.Fprintf(os.Stderr, "obsbench: iteration %d: %.3f s, %.0f records/s, %.2f us CPU/record, %.1f allocs/record, peak heap %.1f MiB, freshness p50 %.0f ms%s\n",
			len(iters), it.m.wall.Seconds(), float64(it.records)/it.m.wall.Seconds(), cpuPerRecord(it),
			float64(it.m.allocs)/float64(it.records), float64(it.m.peakHeap)/(1<<20), it.freshP50, ckpts)
		st.roundIfDue(time.Since(start), budget)
	}
	return iters, st.finish()
}

func atRestIteration(in *inputs, ref views, w *work, l *ledger, withAPI bool) (iteration, error) {
	var it iteration
	ckpt := ""
	if in.ckptInterval != 0 {
		dir, err := w.fresh("ckpt")
		if err != nil {
			return it, err
		}
		ckpt = dir
	}
	d, err := startDaemon(daemonOptions(in, in.paths, false, ckpt))
	if err != nil {
		return it, err
	}
	defer d.close()
	sub, err := subscribe(d.srv.base)
	if err != nil {
		return it, err
	}
	l.attempted++ // the subscription
	runtime.GC()
	l.attempted += in.records
	m := startMeter()
	res, runErr := d.o.Run(context.Background())
	it.m = m.Stop()
	pubs, dropped := sub.finish(10 * time.Second)
	if dropped {
		l.fail("SSE subscriber dropped before the final snapshot")
	}
	if runErr != nil {
		l.fail("ingest: %v", runErr)
	}
	if res == nil {
		return it, fmt.Errorf("ingest returned no results: %v", runErr)
	}
	it.records = res.Records
	if res.Ingest != nil && res.Ingest.Decoded < uint64(in.records) {
		l.failed += in.records - int(res.Ingest.Decoded)
		l.notef("decoded %d of %d records", res.Ingest.Decoded, in.records)
	}
	it.freshP50, it.freshTail = restFreshness(pubs, m.wall0, res.Records)
	if ckpt != "" {
		l.attempted++
		if it.checkpoints, err = checkpointsWritten(d.srv.base); err != nil {
			l.fail("reading the checkpoint count: %v", err)
		}
	}
	phases := 0
	if withAPI {
		phases = 1
	}
	checkPhase(d.srv.base, &it, ref, l, phases, nil)
	return it, nil
}

// checkpointsWritten reads how many checkpoints the observatory has
// written off its /readyz report.
func checkpointsWritten(base string) (int, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	body, err := get(c, base+"/readyz")
	if err != nil {
		return 0, err
	}
	var ready struct {
		Checkpoints *int `json:"checkpoints"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		return 0, err
	}
	if ready.Checkpoints == nil {
		return 0, fmt.Errorf("/readyz reports no checkpoint count: %s", body)
	}
	return *ready.Checkpoints, nil
}

// restFreshness measures freshness at rest, where every record is
// available when ingest starts: the tail is the time until the complete
// result is published, and the median the time until the published
// records count reaches half the records, read off the publication
// progress curve interpolated between publications — the first
// publication covering the median record would quantize it to the
// 500 ms publish cadence and make it bimodal.
func restFreshness(pubs []publication, start time.Time, n uint64) (p50, tail float64) {
	ms := func(t time.Time) float64 { return float64(t.Sub(start)) / 1e6 }
	if len(pubs) == 0 {
		return math.NaN(), math.NaN()
	}
	tail = ms(pubs[len(pubs)-1].at)
	half := float64(n) / 2
	prevT, prevN := 0.0, 0.0
	for _, pub := range pubs {
		t, r := ms(pub.at), float64(pub.records)
		if r >= half {
			return prevT + (half-prevN)/(r-prevN)*(t-prevT), tail
		}
		prevT, prevN = t, r
	}
	return tail, tail
}

// checkPhase runs once the final snapshot is published and nothing
// else runs. It first makes phases rounds of apiReads closed-loop GETs
// of apiEndpoint over one keep-alive connection, apiPause apart, then
// fetches every analyzer view and checks it against the reference.
// pause, if not nil, runs at the start of each pause between phases.
func checkPhase(base string, it *iteration, ref views, l *ledger, phases int, pause func()) {
	c := newClient()
	defer c.CloseIdleConnections()
	for p := 0; p < phases; p++ {
		if p > 0 {
			t0 := time.Now()
			if pause != nil {
				pause()
			}
			time.Sleep(apiPause - time.Since(t0))
		}
		runtime.GC()
		for i := 0; i < apiWarmup; i++ {
			l.attempted++
			if _, err := get(c, base+apiEndpoint); err != nil {
				l.fail("api warm-up: %v", err)
			}
		}
		for i := 0; i < apiReads; i++ {
			l.attempted++
			t0 := time.Now()
			_, err := get(c, base+apiEndpoint)
			it.apiMs = append(it.apiMs, float64(time.Since(t0))/1e6)
			if err != nil {
				l.fail("api read: %v", err)
			}
		}
	}
	got, failed, err := fetchViews(c, base)
	l.attempted += len(stream.AnalyzerNames)
	if failed > 0 {
		l.fail("fetching views: %d failed: %v", failed, err)
	}
	it.views = got
	l.check("final views", ref, got)
}

// runFollow runs one live-follow session: the calling goroutine, as the
// generator, appends the planned records on their open-loop schedule
// while the observatory tails the file on another; freshness comes from
// one SSE subscription. The reference is the at-rest analysis of the
// appended file. Set-up rounds run before the session and in the pauses
// between its API phases.
func runFollow(in *inputs, w *work, l *ledger, st *setupTimer) (iteration, error) {
	var it iteration
	st.round()
	fp := in.follow
	dir, err := w.fresh("follow")
	if err != nil {
		return it, err
	}
	path := filepath.Join(dir, filepath.Base(fp.path))
	f, err := os.Create(path)
	if err != nil {
		return it, err
	}
	defer f.Close()
	if _, err := f.Write(fp.header); err != nil {
		return it, err
	}
	d, err := startDaemon(daemonOptions(in, []string{path}, true, ""))
	if err != nil {
		return it, err
	}
	defer d.close()
	sub, err := subscribe(d.srv.base)
	if err != nil {
		return it, err
	}
	l.attempted++
	runtime.GC()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := startMeter()
	done := make(chan struct{})
	var (
		res    *stream.Results
		runErr error
	)
	go func() {
		defer close(done)
		res, runErr = d.o.Run(ctx)
	}()
	appended := appendOnSchedule(f, fp, m.wall0.Add(20*time.Millisecond))
	l.attempted += len(fp.lines)
	it.lateMax = appended.lateMax
	if appended.err != nil {
		cancel()
		<-done
		return it, appended.err
	}
	if appended.late > 0 {
		l.failed += appended.late
		l.notef("generator appended %d records more than %v late", appended.late, lateBudget)
	}
	if err := awaitFollow(d.o.Metrics(), sub, fp); err != nil {
		l.fail("%v", err)
	}
	cancel()
	<-done
	it.m = m.Stop()
	if runErr != nil {
		l.fail("follow ingest: %v", runErr)
	}
	pubs, dropped := sub.finish(10 * time.Second)
	if dropped {
		l.fail("SSE subscriber dropped before the final snapshot")
	}
	if res == nil {
		return it, fmt.Errorf("follow ingest returned no results: %v", runErr)
	}
	it.records = res.Records
	if res.Ingest != nil && res.Ingest.Decoded < uint64(len(fp.lines)) {
		l.failed += len(fp.lines) - int(res.Ingest.Decoded)
		l.notef("decoded %d of %d appended records", res.Ingest.Decoded, len(fp.lines))
	}
	it.freshP50, it.freshTail, _ = followFreshness(fp, pubs, appended.start)

	refRes, err := core.StreamAnalyzeAllFiles(context.Background(), []string{path},
		core.StreamOptions{Format: in.format, Shards: 1, Analyzers: stream.AnalyzerNames})
	if err != nil {
		return it, fmt.Errorf("reference analysis of the appended log: %w", err)
	}
	ref, err := referenceViews(refRes)
	if err != nil {
		return it, err
	}
	checkPhase(d.srv.base, &it, ref, l, apiPhases, st.round)
	return it, st.finish()
}

// awaitFollow waits, after the last append, until the observatory has
// decoded every appended record and published a snapshot covering the
// sampled ones; only then may the session end without losing records
// to the cancellation.
func awaitFollow(m *stream.Metrics, sub *subscriber, fp *followPlan) error {
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Decoded < uint64(len(fp.lines)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("decoded %d of %d appended records within 10s", m.Stats().Decoded, len(fp.lines))
		}
		time.Sleep(time.Millisecond)
	}
	if want := fp.kept[fp.sampled-1]; !sub.waitRecords(want, time.Until(deadline)) {
		return fmt.Errorf("published records never reached %d", want)
	}
	return nil
}

// followFreshness computes each sampled kept record's time from its
// scheduled append to the first publication covering it.
func followFreshness(fp *followPlan, pubs []publication, start time.Time) (p50, tail, q float64) {
	sort.SliceStable(pubs, func(i, j int) bool { return pubs[i].at.Before(pubs[j].at) })
	var fresh []float64
	j := 0
	for i := 0; i < fp.sampled; i++ {
		k := fp.kept[i]
		if k == 0 {
			continue
		}
		for j < len(pubs) && pubs[j].records < k {
			j++
		}
		if j == len(pubs) {
			break
		}
		fresh = append(fresh, float64(pubs[j].at.Sub(start.Add(fp.at[i])))/1e6)
	}
	return p50AndTail(fresh)
}

// appendResult reports how the generator kept its schedule.
type appendResult struct {
	start   time.Time // the schedule's origin
	late    int       // appends later than lateBudget
	lateMax time.Duration
	// appendedAt[i] is when record i's write returned.
	appendedAt []time.Time
	err        error
}

// appendOnSchedule writes each planned line at start + its offset,
// batching lines that fall due together into one write. It runs on the
// calling goroutine and returns when the last line is written.
func appendOnSchedule(f *os.File, fp *followPlan, start time.Time) appendResult {
	r := appendResult{start: start, appendedAt: make([]time.Time, len(fp.lines))}
	var buf []byte
	for i := 0; i < len(fp.lines); {
		due := start.Add(fp.at[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		j := i
		buf = buf[:0]
		for j < len(fp.lines) && !start.Add(fp.at[j]).After(now) {
			buf = append(buf, fp.lines[j]...)
			j++
		}
		if _, err := f.Write(buf); err != nil {
			r.err = err
			return r
		}
		written := time.Now()
		for k := i; k < j; k++ {
			late := written.Sub(start.Add(fp.at[k]))
			if late > r.lateMax {
				r.lateMax = late
			}
			if late > lateBudget {
				r.late++
			}
			r.appendedAt[k] = written
		}
		i = j
	}
	return r
}
