package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sitegen"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/internal/weblog"
)

// Workload sizes. The at-rest estate is internal/synth's 36-site,
// 40-day estate at a quarter of paper scale (about 180k records and 15k
// distinct user agents): the same shape as the paper's logs, small
// enough that a run repeats the whole ingest several times.
const (
	estateScale = 0.25
	// estateDays is the estate's observation window, the paper's 40 days.
	estateDays = 40
	// surgeSpoofRate is the spoof rate the bot-surge log gives every bot
	// the population profiles as spoofed. The profiles' own rates, taken
	// from the paper's spoofing counts, are 0.2–3.1%. 1 is the highest
	// rate a profile admits: the spoofers send as much as the genuine
	// bot.
	surgeSpoofRate = 1.0
	// maxDisorder bounds how far bot-surge records are shuffled out of
	// time order; it stays below the pipeline's 2-minute MaxSkew so the
	// reorder buffer absorbs all of it.
	maxDisorder = 90 * time.Second
	// surgeCheckpointEvery is bot-surge's periodic checkpoint cadence,
	// short enough that the capture count follows the ingest time
	// smoothly. One ingest took 1.9–2.7 s within a single run on a
	// 2-vCPU x86 VM, as the host's speed drifted, so no cadence of one
	// or two captures per ingest kept the count fixed: at 1.9 s it
	// flipped between one periodic capture and none. At 500 ms an ingest
	// takes four or five, plus the final one. A capture and its write
	// cost 30–40 ms, so one capture more or less moves an ingest by
	// 1–2%, not a step that makes ingest times bimodal.
	surgeCheckpointEvery = 500 * time.Millisecond

	// followScale sizes the estate the live-follow records are cut from.
	followScale = 0.1
	// followRate is live-follow's offered load in records per wall
	// second, far below the pipeline's capacity.
	followRate = 600
	// followShare is the share of --seconds the live-follow schedule
	// spans; the rest drains the pipeline and reads the API.
	followShare = 0.65
	// followTrailer is the stretch at the end of the live-follow
	// schedule whose records get no freshness sample: they keep event
	// time advancing on every shard, so the sampled records ahead of
	// them are released by the stream itself rather than by its end.
	followTrailer = 1500 * time.Millisecond
	// lateBudget is how late the live-follow generator may append a
	// record before the append counts as failed.
	lateBudget = 100 * time.Millisecond
)

// workloads names the benchmark's workloads.
var workloads = []string{"estate-fanin", "bot-surge", "live-follow"}

// inputs is one workload's generated input files.
type inputs struct {
	workload string
	format   string
	paths    []string // at-rest inputs, in fan-in order
	records  int      // records across paths
	// setupPaths are set-up copies of the inputs: the same files, each
	// cut to its header and first record.
	setupPaths []string
	// ckptInterval is non-zero when the workload checkpoints.
	ckptInterval time.Duration
	follow       *followPlan
}

// followPlan is live-follow's append schedule.
type followPlan struct {
	path   string   // the tailed log, created holding the header only
	header []byte   // CSV header line
	lines  [][]byte // one CSV line per record, in event order
	at     []time.Duration
	// kept[i] is record i's 1-based position among the records the
	// preprocessor keeps (0 if it drops it): the published records
	// count that first includes record i.
	kept []uint64
	// sampled is how many leading records get a freshness sample; the
	// followTrailer after them only keeps the stream moving.
	sampled     int
	compression float64 // event seconds per wall second
}

// buildInputs generates the workload's inputs from seed under dir.
func buildInputs(workload string, seed int64, seconds float64, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var in *inputs
	var err error
	switch workload {
	case "estate-fanin":
		in, err = estateInputs(seed, dir)
	case "bot-surge":
		in, err = surgeInputs(seed, dir)
	case "live-follow":
		in, err = followInputs(seed, seconds, dir)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	return in, writeSetupCopies(in, filepath.Join(dir, "setup"))
}

// writeSetupCopies writes, under dir, a copy of each input that holds
// only its header (CSV) and first record.
func writeSetupCopies(in *inputs, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lines := 1
	if in.format == "csv" {
		lines = 2
	}
	if fp := in.follow; fp != nil {
		path := filepath.Join(dir, filepath.Base(fp.path))
		in.setupPaths = []string{path}
		return os.WriteFile(path, append(append([]byte(nil), fp.header...), fp.lines[0]...), 0o644)
	}
	for _, src := range in.paths {
		data, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		end := 0
		for i := 0; i < lines; i++ {
			nl := bytes.IndexByte(data[end:], '\n')
			if nl < 0 {
				return fmt.Errorf("%s holds fewer than %d lines", src, lines)
			}
			end += nl + 1
		}
		path := filepath.Join(dir, filepath.Base(src))
		if err := os.WriteFile(path, data[:end], 0o644); err != nil {
			return err
		}
		in.setupPaths = append(in.setupPaths, path)
	}
	return nil
}

func generate(seed int64, scale float64) (*synth.Generator, *weblog.Dataset, error) {
	g, err := synth.New(synth.Config{Seed: seed, Scale: scale, Days: estateDays})
	if err != nil {
		return nil, nil, err
	}
	return g, g.FullDataset(), nil
}

// estateInputs writes one CSV log per site, each in time order.
func estateInputs(seed int64, dir string) (*inputs, error) {
	_, d, err := generate(seed, estateScale)
	if err != nil {
		return nil, err
	}
	bySite := make(map[string]*weblog.Dataset)
	for _, r := range d.Records {
		s := bySite[r.Site]
		if s == nil {
			s = &weblog.Dataset{}
			bySite[r.Site] = s
		}
		s.Records = append(s.Records, r)
	}
	in := &inputs{workload: "estate-fanin", format: "csv", records: len(d.Records)}
	for site, s := range bySite {
		path := filepath.Join(dir, site+".csv")
		if err := writeFile(path, func(w *bufio.Writer) error { return weblog.WriteCSV(w, s) }); err != nil {
			return nil, err
		}
		in.paths = append(in.paths, path)
	}
	sort.Strings(in.paths) // fan-in order breaks equal-timestamp ties
	return in, nil
}

// surgeInputs merges the estate into one JSONL log, adds a spoofing
// surge, and shuffles the records out of order by up to maxDisorder,
// like a log merged from several front-ends. The surge follows the
// population's spoofing profiles (botnet.Profile.SpoofASNs and
// SpoofRate, from the paper's spoofing analysis), as the generator's own
// spoofed identities do. Every bot the profiles list as spoofed is
// spoofed from each of its spoofing ASNs, at surgeSpoofRate in place of
// its profiled rate and over the whole window. The generator gives each
// spoofing ASN one address. Here each ASN gets a fleet as large as the
// genuine bot's profiled NumIPs, so the surge comes from many IP hashes.
// Spoofed instances ignore robots.txt, as the generator models them: no
// robots.txt fetches, page-data paths at the bot's baseline affinity,
// 60% of accesses on the study site.
func surgeInputs(seed int64, dir string) (*inputs, error) {
	g, d, err := generate(seed, estateScale)
	if err != nil {
		return nil, err
	}
	estate := len(d.Records)
	rng := rand.New(rand.NewSource(seed ^ 0x5e1f))
	anon := weblog.NewAnonymizer(nil)
	sites := g.Sites()
	study := sitegen.StudySite(sites)
	pageData := make(map[*sitegen.Site][]string, len(sites))
	crawlable := make(map[*sitegen.Site][]string, len(sites))
	for i := range sites {
		pageData[&sites[i]] = sites[i].PageDataPaths()
		crawlable[&sites[i]] = sites[i].CrawlablePaths()
	}
	window := time.Duration(estateDays) * 24 * time.Hour
	pairs := make(map[[2]string]bool)
	ips := make(map[string]bool)
	for _, p := range g.Population().Profiles {
		if p.SpoofRate == 0 {
			continue
		}
		n := int(p.DailyHits*estateScale*surgeSpoofRate*estateDays + 0.5)
		for i := 0; i < n; i++ {
			asn := rng.Intn(len(p.SpoofASNs))
			site := study
			if rng.Float64() >= 0.6 {
				site = &sites[rng.Intn(len(sites))]
			}
			path := ""
			if pd := pageData[site]; len(pd) > 0 && rng.Float64() < p.PageDataAffinity {
				path = pd[rng.Intn(len(pd))]
			} else {
				cp := crawlable[site]
				path = cp[rng.Intn(len(cp))]
			}
			page, _ := site.Lookup(path)
			ip := anon.HashIP(fmt.Sprintf("surge-%s-%d-%d", p.Bot.Name, asn, rng.Intn(p.NumIPs)))
			pairs[[2]string{p.Bot.Name, p.SpoofASNs[asn]}] = true
			ips[ip] = true
			d.Records = append(d.Records, weblog.Record{
				UserAgent: p.Bot.UASample,
				Time:      synth.DefaultStart.Add(time.Duration(rng.Int63n(int64(window)))).Truncate(time.Second),
				IPHash:    ip,
				ASN:       p.SpoofASNs[asn],
				Site:      site.Name,
				Path:      path,
				Status:    200,
				Bytes:     page.Size,
			})
		}
	}
	surge := len(d.Records) - estate
	fmt.Fprintf(os.Stderr, "obsbench: bot-surge adds %d spoofed records to %d (%.1f%% of the log) over %d days, from %d (bot, ASN) pairs and %d IP hashes\n",
		surge, estate, 100*float64(surge)/float64(len(d.Records)), estateDays, len(pairs), len(ips))
	type keyed struct {
		key time.Time
		rec weblog.Record
	}
	ks := make([]keyed, len(d.Records))
	for i, r := range d.Records {
		ks[i] = keyed{key: r.Time.Add(time.Duration(rng.Int63n(int64(maxDisorder)))), rec: r}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key.Before(ks[j].key) })
	merged := &weblog.Dataset{Records: make([]weblog.Record, len(ks))}
	for i := range ks {
		merged.Records[i] = ks[i].rec
	}
	path := filepath.Join(dir, "merged.jsonl")
	if err := writeFile(path, func(w *bufio.Writer) error { return weblog.WriteJSONL(w, merged) }); err != nil {
		return nil, err
	}
	return &inputs{
		workload: "bot-surge", format: "jsonl", paths: []string{path},
		records: len(merged.Records), ckptInterval: surgeCheckpointEvery,
	}, nil
}

// followInputs cuts followRate × followShare × seconds consecutive
// records out of the middle of a smaller estate and schedules their
// appends so event time runs linearly compressed onto the schedule.
func followInputs(seed int64, seconds float64, dir string) (*inputs, error) {
	_, d, err := generate(seed, followScale)
	if err != nil {
		return nil, err
	}
	span := time.Duration(followShare * seconds * float64(time.Second))
	n := int(followRate * span.Seconds())
	if n < 2 || n > len(d.Records)/2 {
		return nil, fmt.Errorf("live-follow: %d records do not fit the generated estate of %d", n, len(d.Records))
	}
	recs := &weblog.Dataset{Records: d.Records[len(d.Records)/2 : len(d.Records)/2+n]}
	var buf bytes.Buffer
	if err := weblog.WriteCSV(&buf, recs); err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != n+1 {
		return nil, fmt.Errorf("live-follow: rendered %d lines for %d records", len(lines), n)
	}
	fp := &followPlan{
		path:   filepath.Join(dir, "follow.csv"),
		header: lines[0],
		lines:  lines[1:],
		at:     make([]time.Duration, n),
		kept:   make([]uint64, n),
	}
	t0, t1 := recs.Records[0].Time, recs.Records[n-1].Time
	eventSpan := t1.Sub(t0)
	fp.compression = eventSpan.Seconds() / span.Seconds()
	pre := weblog.NewPreprocessor()
	var kept uint64
	for i := range recs.Records {
		r := recs.Records[i]
		fp.at[i] = time.Duration(float64(r.Time.Sub(t0)) / fp.compression)
		if pre.Keep(&r) {
			kept++
			fp.kept[i] = kept
		}
		if fp.at[i] <= span-followTrailer && !r.Time.After(t1.Add(-stream.DefaultMaxSkew)) {
			fp.sampled = i + 1
		}
	}
	if fp.sampled == 0 || n < 64 {
		return nil, fmt.Errorf("live-follow: %.1f s of schedule leave no record to sample after the %v trailer; raise --seconds", span.Seconds(), followTrailer)
	}
	return &inputs{workload: "live-follow", format: "csv", records: n, follow: fp}, nil
}

// writeFile writes path through a buffered writer.
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
