package main

import (
	"context"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/stream"
	"repro/internal/weblog"
)

// decoded is a workload's inputs decoded into memory, per source.
type decoded struct {
	raw [][]weblog.Record // as decoded
	// kept holds the records the preprocessor keeps, enriched by the
	// matcher: what the shards receive.
	kept [][]weblog.Record
}

// decodeAll decodes paths (one source each) and applies the default
// preprocessing untimed.
func decodeAll(format string, paths []string) (*decoded, error) {
	d := &decoded{}
	matcher := agent.NewCachedMatcher(nil)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		dec, err := stream.NewDecoderBytes(format, data, weblog.CLFOptions{})
		if err != nil {
			return nil, err
		}
		keep := weblog.NewPreprocessor().Keep
		var raw, kept []weblog.Record
		for {
			rec, err := dec.Next()
			if err != nil {
				break
			}
			raw = append(raw, rec)
			if !keep(&rec) {
				continue
			}
			if b, ok := matcher.Match(rec.UserAgent); ok {
				rec.BotName, rec.Category = b.Name, b.Category.String()
			} else {
				rec.BotName, rec.Category = "", ""
			}
			kept = append(kept, rec)
		}
		d.raw = append(d.raw, raw)
		d.kept = append(d.kept, kept)
	}
	return d, nil
}

func (d *decoded) keptCount() int {
	n := 0
	for _, k := range d.kept {
		n += len(k)
	}
	return n
}

// noopAnalyzer folds nothing, so a pipeline built on it measures
// dispatch alone: routing, batching, channels and the reorder buffer.
type noopAnalyzer struct{}

type noopState struct{}

func (noopAnalyzer) Name() string                     { return "noop" }
func (noopAnalyzer) NewState() stream.ShardState      { return noopState{} }
func (noopAnalyzer) Snapshot([]stream.ShardState) any { return nil }

func (noopState) Apply(*weblog.Record, uint64)         {}
func (noopState) ApplyBatch([]weblog.Record, []uint64) {}

const dispatchReps = 3

// dispatchCost runs the pre-decoded, pre-enriched records through
// stream.NewPipeline with a no-op analyzer — the fan-in over one source
// per input at rest, the single-dispatcher path when following — and
// returns the median CPU nanoseconds and allocations per record.
func dispatchCost(d *decoded, follow bool) (nsPerRec, allocsPerRec float64) {
	n := float64(d.keptCount())
	var ns, allocs []float64
	for rep := 0; rep < dispatchReps; rep++ {
		runtime.GC()
		p := stream.NewPipeline(stream.Options{Analyzers: []stream.Analyzer{noopAnalyzer{}}})
		m := startMeter()
		if follow {
			_, _ = p.Run(nil, stream.NewDatasetDecoder(&weblog.Dataset{Records: d.kept[0]}))
		} else {
			srcs := make([]stream.Source, len(d.kept))
			for i, recs := range d.kept {
				srcs[i] = stream.Source{Name: "src", Dec: stream.NewDatasetDecoder(&weblog.Dataset{Records: recs})}
			}
			_, _ = p.RunSources(context.Background(), srcs)
		}
		got := m.Stop()
		ns = append(ns, float64(got.cpu)/n)
		allocs = append(allocs, float64(got.allocs)/n)
	}
	return median(ns), median(allocs)
}

// foldAllocs replays the kept records in one shard's fold order — by
// time, ties by fan-in sequence — through each analyzer on one
// goroutine and returns allocations per record per analyzer.
func foldAllocs(d *decoded) (map[string]float64, error) {
	type seqRec struct {
		rec *weblog.Record
		seq uint64
	}
	var all []seqRec
	for src, recs := range d.kept {
		for i := range recs {
			all = append(all, seqRec{rec: &recs[i], seq: uint64(src)<<44 | uint64(i+1)})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		ti, tj := all[i].rec.Time, all[j].rec.Time
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return all[i].seq < all[j].seq
	})
	recs := make([]weblog.Record, len(all))
	seqs := make([]uint64, len(all))
	for i, sr := range all {
		recs[i], seqs[i] = *sr.rec, sr.seq
	}
	all = nil
	out := make(map[string]float64)
	for _, name := range stream.AnalyzerNames {
		a, err := stream.NewAnalyzer(name, stream.AnalyzerOptions{})
		if err != nil {
			return nil, err
		}
		st := a.NewState()
		ba, _ := st.(stream.BatchApplier)
		wo, _ := st.(stream.WatermarkObserver)
		runtime.GC()
		m0 := mallocs()
		for i := 0; i < len(recs); i += stream.DefaultBatchSize {
			j := min(i+stream.DefaultBatchSize, len(recs))
			if ba != nil {
				ba.ApplyBatch(recs[i:j], seqs[i:j])
			} else {
				for k := i; k < j; k++ {
					st.Apply(&recs[k], seqs[k])
				}
			}
			if wo != nil {
				wo.Advance(recs[j-1].Time)
			}
		}
		out[name] = float64(mallocs()-m0) / float64(len(recs))
	}
	return out, nil
}

// maxMissSample caps how many distinct user agents missUs matches.
const maxMissSample = 2000

// missUs is the cost of one memo miss: a plain agent.Matcher.Match
// (token scan, then fuzzy Damerau-Levenshtein) over the workload's
// distinct user agents, an evenly spaced sample when there are many.
func missUs(d *decoded) float64 {
	seen := make(map[string]struct{})
	for _, recs := range d.raw {
		for i := range recs {
			seen[recs[i].UserAgent] = struct{}{}
		}
	}
	uas := make([]string, 0, len(seen))
	for ua := range seen {
		uas = append(uas, ua)
	}
	sort.Strings(uas)
	if len(uas) > maxMissSample {
		step := float64(len(uas)) / maxMissSample
		sample := make([]string, maxMissSample)
		for i := range sample {
			sample[i] = uas[int(float64(i)*step)]
		}
		uas = sample
	}
	m := agent.NewMatcher(nil)
	t0 := time.Now()
	for _, ua := range uas {
		m.Match(ua)
	}
	return float64(time.Since(t0)) / 1e3 / float64(len(uas))
}
