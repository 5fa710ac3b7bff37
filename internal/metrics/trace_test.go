package metrics

import (
	"testing"
	"time"
)

// fullTracer returns a tracer whose slow-op log is already full of ops far
// slower than anything a test will finish, so no further op is admitted.
func fullTracer(reg *Registry) *Tracer {
	tr := NewTracer(reg, 4, false)
	for i := 0; i < 4; i++ {
		tr.slow.Offer(SlowOp{Op: "put", Total: time.Hour})
	}
	return tr
}

// TestTracerNonAdmittedOpAllocs guards the per-op cost of tracing: an op the
// slow-op log does not admit costs exactly the trace's own allocation —
// stages live in the trace's inline array, the WAL position in two
// integers, the op histogram is a resolved handle, and nothing is copied or
// formatted for the log.
func TestTracerNonAdmittedOpAllocs(t *testing.T) {
	reg := NewRegistry()
	tr := fullTracer(reg)
	tr.Finish(tr.Start("put", "items")) // resolve the (put, items) histogram
	allocs := testing.AllocsPerRun(200, func() {
		tc := tr.Start("put", "items")
		tc.AddStage(StageWAL, time.Microsecond)
		tc.SetWALPos(3, 4096)
		tc.AddStage(StageMemtable, time.Microsecond)
		tc.AddStage(StageIndexRPC, time.Microsecond)
		tr.Finish(tc)
	})
	if allocs != 1 {
		t.Fatalf("Start/AddStage/SetWALPos/Finish of a non-admitted op = %v allocs, want 1 (the trace)", allocs)
	}
	if got := reg.Histogram("diffindex_op_latency_ns", L("op", "put"), L("table", "items")).Count(); got != 202 {
		t.Fatalf("op histogram count = %d, want 202", got)
	}
}

// TestTracerAdmittedOpKeepsStagesAndNotes checks the other side of the
// admission check: an admitted op carries its stages in order and its WAL
// position formatted as a note, the later position overwriting the earlier.
func TestTracerAdmittedOpKeepsStagesAndNotes(t *testing.T) {
	tr := NewTracer(NewRegistry(), 4, false)
	tc := tr.Start("put", "items")
	tc.AddStage(StageWAL, 2*time.Millisecond)
	tc.SetWALPos(1, 10)
	tc.SetWALPos(7, 512)
	tc.AddStage(StageMemtable, time.Millisecond)
	tr.Finish(tc)

	ops := tr.SlowOps()
	if len(ops) != 1 {
		t.Fatalf("slow ops = %+v, want 1", ops)
	}
	op := ops[0]
	if len(op.Stages) != 2 || op.Stages[0].Name != StageWAL || op.Stages[1].Name != StageMemtable {
		t.Fatalf("stages = %+v", op.Stages)
	}
	if len(op.Notes) != 1 || op.Notes["wal_pos"] != "7@512" {
		t.Fatalf("notes = %v, want wal_pos=7@512", op.Notes)
	}
}

// TestTracerManyStagesOutgrowInlineArray checks a trace with more stages
// than its inline array still keeps every one.
func TestTracerManyStagesOutgrowInlineArray(t *testing.T) {
	tr := NewTracer(NewRegistry(), 4, false)
	tc := tr.Start("scan", "items")
	for i := 0; i < 20; i++ {
		tc.AddStage(StageStoreScan, time.Duration(i))
	}
	tr.Finish(tc)
	st := tr.SlowOps()[0].Stages
	if len(st) != 20 || st[19].Dur != 19 {
		t.Fatalf("stages = %+v", st)
	}
}

// TestHistogramVecResolvesRegistryInstrument checks a vector hands out the
// instrument Registry.Histogram returns for the same labels, whatever their
// order, and that a hit allocates nothing.
func TestHistogramVecResolvesRegistryInstrument(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("diffindex_stage_latency_ns", "stage", "table", "scheme")
	h := v.With(StageIndexRPC, "items", "sync-full")
	want := reg.Histogram("diffindex_stage_latency_ns", L("table", "items"), L("scheme", "sync-full"), L("stage", StageIndexRPC))
	if h != want {
		t.Fatal("vector and registry resolved different histograms")
	}
	if v.With(StageIndexRPC, "items", "sync-insert") == h {
		t.Fatal("different label values resolved the same histogram")
	}
	if v.With(StageIndexRPC, "items", "sync-full") != h {
		t.Fatal("a repeated lookup resolved a new histogram")
	}
	if allocs := testing.AllocsPerRun(200, func() { v.With(StageIndexRPC, "items", "sync-full").Record(1) }); allocs != 0 {
		t.Fatalf("vector hit = %v allocs, want 0", allocs)
	}
}

// BenchmarkTracerNonAdmittedOp measures what tracing adds to an ordinary
// put: start, two stages, the WAL-position note and a non-admitted finish.
func BenchmarkTracerNonAdmittedOp(b *testing.B) {
	tr := fullTracer(NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.Start("put", "items")
		tc.AddStage(StageWAL, time.Microsecond)
		tc.SetWALPos(3, 4096)
		tc.AddStage(StageMemtable, time.Microsecond)
		tr.Finish(tc)
	}
}
