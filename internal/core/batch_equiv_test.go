package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/event"
	"repro/internal/rules"
)

// TestBatchedIngestMatchesPerEvent is the equivalence contract of the
// batched ingest pipeline: feeding the same stream through
// ProcessEventBatch (caller-coalesced apply + group WAL appends) must leave
// exactly the per-event end state — identical matrix records (modulo the
// version slot, whose intermediate stamps legitimately differ), identical
// rule-firing counts (rules are evaluated per event against the
// intermediate record either way), and byte-identical archive contents.
// The "per-event" side is ProcessEventAsync, whose lone events take the
// same batched path as runs of one, so this pins that batch and run length
// leave no trace; the eager-apply reference is schema's split-phase
// equivalence tests (TestSplitPhaseMatchesSeedPerEvent and friends).
func TestBatchedIngestMatchesPerEvent(t *testing.T) {
	sch := testSchema(t)
	calls := sch.MustAttrIndex("calls_today_count")
	rule := []rules.Rule{{
		ID: 1, Action: "alert",
		Conjuncts: []rules.Conjunct{{{Kind: rules.LHSAttr, Attr: calls, Op: rules.Ge, Value: 3}}},
	}}

	// Timestamps advance across several day windows, so per-caller apply
	// order is observable through window rollovers, not just firing counts.
	const nEvents = 2000
	const nEntities = 41
	rng := rand.New(rand.NewSource(7))
	evs := make([]event.Event, nEvents)
	for i := range evs {
		evs[i] = event.Event{
			Caller:       uint64(rng.Intn(nEntities)) + 1,
			Callee:       uint64(rng.Intn(nEntities)) + 1,
			Timestamp:    100*dayMs + int64(i)*(dayMs/300),
			Duration:     int64(rng.Intn(600)),
			Cost:         float64(rng.Intn(100)) / 10,
			LongDistance: rng.Intn(4) == 0,
		}
	}

	run := func(batched bool) (*StorageNode, *archive.Archive, uint64) {
		arch, err := archive.Open(t.TempDir(), archive.Options{SegmentEvents: 128})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { arch.Close() })
		var firings atomic.Uint64
		n := newTestNode(t, Config{
			Schema:     sch,
			Partitions: 3,
			ESPThreads: 2,
			Rules:      rule,
			Archive:    arch,
			OnFiring:   func(rules.Firing) { firings.Add(1) },
		})
		if batched {
			// Ragged batch sizes exercise partial runs, single-event batches,
			// and batches spanning archive segment rotations.
			sizes := rand.New(rand.NewSource(11))
			for i := 0; i < len(evs); {
				j := min(i+1+sizes.Intn(200), len(evs))
				batch := make([]event.Event, j-i)
				copy(batch, evs[i:j]) // the node owns the slice it is handed
				if err := n.ProcessEventBatch(batch); err != nil {
					t.Fatal(err)
				}
				i = j
			}
		} else {
			for i := range evs {
				if err := n.ProcessEventAsync(evs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := n.FlushEvents(); err != nil {
			t.Fatal(err)
		}
		return n, arch, firings.Load()
	}

	ref, refArch, refFirings := run(false)
	got, gotArch, gotFirings := run(true)

	if gotFirings != refFirings || got.Stats().RuleFirings != ref.Stats().RuleFirings {
		t.Fatalf("firings: batched %d (stats %d), per-event %d (stats %d)",
			gotFirings, got.Stats().RuleFirings, refFirings, ref.Stats().RuleFirings)
	}
	if got.Stats().EventsProcessed != ref.Stats().EventsProcessed {
		t.Fatalf("events processed: batched %d, per-event %d",
			got.Stats().EventsProcessed, ref.Stats().EventsProcessed)
	}
	if got.Stats().CoalescedPuts == 0 {
		t.Fatal("batched run coalesced no puts")
	}

	// Matrix equivalence: every entity's record matches slot for slot,
	// ignoring only the version stamp.
	vslot := sch.VersionSlot
	for e := uint64(1); e <= nEntities; e++ {
		refRec, _, refOK, err := ref.Get(e)
		if err != nil {
			t.Fatal(err)
		}
		gotRec, _, gotOK, err := got.Get(e)
		if err != nil {
			t.Fatal(err)
		}
		if refOK != gotOK {
			t.Fatalf("entity %d: batched present=%v, per-event present=%v", e, gotOK, refOK)
		}
		if !refOK {
			continue
		}
		for s := range refRec {
			if s == vslot {
				continue
			}
			if refRec[s] != gotRec[s] {
				t.Fatalf("entity %d slot %d: batched %d, per-event %d", e, s, gotRec[s], refRec[s])
			}
		}
	}

	// Archive equivalence: group appends must log the same events at the
	// same LSNs as per-event appends.
	if gotArch.NextLSN() != refArch.NextLSN() {
		t.Fatalf("NextLSN: batched %d, per-event %d", gotArch.NextLSN(), refArch.NextLSN())
	}
	refLog := make([]event.Event, 0, nEvents)
	if err := refArch.Replay(0, func(_ uint64, ev event.Event) error {
		refLog = append(refLog, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := gotArch.Replay(0, func(lsn uint64, ev event.Event) error {
		if ev != refLog[i] {
			t.Fatalf("archive LSN %d: batched %+v, per-event %+v", lsn, ev, refLog[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != nEvents {
		t.Fatalf("batched archive replayed %d events, want %d", i, nEvents)
	}
}
