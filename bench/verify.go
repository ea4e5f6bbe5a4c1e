package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"

	"daccor/internal/analysis"
	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/monitor"
	"daccor/internal/pipeline"
	"daccor/internal/realtime"
	"daccor/pkg/client"
)

// recallSupport is the frequency from which a pair counts as a
// correlation worth finding, as in the paper's accuracy figures.
const recallSupport = 5

func pipelineConfig(capacity int) pipeline.Config {
	return pipeline.Config{
		Monitor:  monitor.Config{Window: monitor.StaticWindow(txWindow)},
		Analyzer: core.Config{ItemCapacity: capacity, PairCapacity: capacity},
	}
}

// baseline runs events through the single-threaded pipeline — the
// same job without the engine — leaving the last transaction open,
// exactly as a live device does.
func baseline(capacity int, events []blktrace.Event) (*pipeline.Pipeline, error) {
	p, err := pipeline.New(pipelineConfig(capacity))
	if err != nil {
		return nil, err
	}
	return p, feed(p, events)
}

func feed(p *pipeline.Pipeline, events []blktrace.Event) error {
	for _, ev := range events {
		if err := p.HandleIssue(ev); err != nil {
			return err
		}
	}
	return nil
}

// exactPairs counts every pair of every transaction of events with an
// unbounded map: the ground truth the bounded synopsis approximates.
// Like a live device it leaves the last transaction open.
func exactPairs(events []blktrace.Event) (map[blktrace.Pair]int, error) {
	freqs := make(map[blktrace.Pair]int)
	m, err := monitor.New(pipelineConfig(0).Monitor, func(tx monitor.Transaction) {
		for i, a := range tx.Extents {
			for _, b := range tx.Extents[i+1:] {
				freqs[blktrace.MakePair(a, b)]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		if err := m.HandleEvent(ev); err != nil {
			return nil, err
		}
	}
	return freqs, nil
}

// verifySeed checks the verification lap against references computed
// without the engine and returns dev00's weighted recall in percent.
func (w *workload) verifySeed(s *system, in *inputs) (recallPct float64, err error) {
	for i, st := range s.streams {
		if w.seedLen != ingestTrace && i > 0 {
			break // many small devices: the first stands for all
		}
		lap := in.traces[i][:w.seedLen]
		snap, err := s.eng.Snapshot(st.id, 0)
		if err != nil {
			return 0, err
		}
		if w.partitions == 1 {
			// Engine at P=1 ≡ single-threaded baseline, byte for byte.
			ref, err := baseline(w.capacity, lap)
			if err != nil {
				return 0, err
			}
			var got, want bytes.Buffer
			if err := s.eng.WriteSnapshot(st.id, &got); err != nil {
				return 0, err
			}
			if _, err := ref.Analyzer().WriteTo(&want); err != nil {
				return 0, err
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				return 0, fmt.Errorf("%s: engine synopsis after the verification lap differs from the pipeline baseline (%d vs %d bytes)",
					st.id, got.Len(), want.Len())
			}
		} else {
			// P>1 ≡ P=1 while nothing has been evicted.
			ref, err := baseline(w.capacity, lap[:equivPrefix])
			if err != nil {
				return 0, err
			}
			if rs := ref.Analyzer().Stats(); rs.PairEvictions+rs.ItemEvictions > 0 {
				return 0, fmt.Errorf("%s: baseline evicted within the first %d events; equivPrefix is too long", st.id, equivPrefix)
			}
			if want := ref.Snapshot(0); !reflect.DeepEqual(s.prefixSnap, want) {
				return 0, fmt.Errorf("%s: P=%d export after %d events differs from P=1 (%d vs %d pairs)",
					st.id, w.partitions, equivPrefix, len(s.prefixSnap.Pairs), len(want.Pairs))
			}
		}
		if i == 0 {
			freqs, err := exactPairs(lap)
			if err != nil {
				return 0, err
			}
			recallPct = 100 * analysis.WeightedRecall(snap.PairSet(), freqs, recallSupport)
		}
	}
	return recallPct, nil
}

// verifyMerged runs once the phases are over and the system is idle:
// the merged read against a from-scratch merge, and the aggregator's
// mirror against the collector it mirrors.
func (s *system) verifyMerged() error {
	var snaps []core.Snapshot
	for _, id := range s.eng.Devices() {
		snap, err := s.eng.Snapshot(id, 0)
		if err != nil {
			return err
		}
		snaps = append(snaps, snap)
	}
	oracle := core.MergeSnapshots(snaps...)
	got, err := s.cl.FleetRules(context.Background(), client.Query{Top: readTop})
	if err != nil {
		return err
	}
	if want := oracle.TopRules(realtime.DefaultSupport, realtime.DefaultConfidence, readTop); !slices.Equal(got.Rules, want) {
		return fmt.Errorf("merged rules differ from the MergeSnapshots oracle (%d vs %d rules)", len(got.Rules), len(want))
	}
	if _, err := s.syncRound(nil, -1); err != nil {
		return err
	}
	merged, err := s.eng.MergedSnapshot(0)
	if err != nil {
		return err
	}
	if mirror := s.agg.MergedSnapshot(0); !reflect.DeepEqual(mirror, merged) {
		return fmt.Errorf("aggregator mirror differs from the collector (%d vs %d pairs)", len(mirror.Pairs), len(merged.Pairs))
	}
	return nil
}
