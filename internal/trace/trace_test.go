package trace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"banscore/internal/telemetry"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Armed() {
		t.Error("nil tracer armed")
	}
	tr.Enable()
	tr.Reset()
	tr.Instrument(telemetry.NewRegistry())
	if ctx := tr.Sample(); ctx != nil {
		t.Error("nil tracer sampled")
	}
	if ctx := tr.Always(); ctx != nil {
		t.Error("nil tracer Always returned a ctx")
	}
	if got := tr.SampleN(); got != 0 {
		t.Errorf("nil SampleN = %d", got)
	}
	if spans := tr.Spans(); spans != nil {
		t.Errorf("nil Spans = %v", spans)
	}
	total, dropped, sampled := tr.Stats()
	if total != 0 || dropped != 0 || sampled != 0 {
		t.Error("nil Stats non-zero")
	}

	var ctx *Ctx
	if ctx.TraceID() != 0 {
		t.Error("nil ctx has a trace ID")
	}
	ctx.Add(Span{Stage: StageHandle})
	ctx.Record(StageHandle, "p", "ping", time.Now(), time.Millisecond)
}

func TestDisabledTracerNeverSamples(t *testing.T) {
	tr := New(Config{SampleN: 1})
	for i := 0; i < 100; i++ {
		if ctx := tr.Sample(); ctx != nil {
			t.Fatal("disabled tracer sampled")
		}
	}
	if tr.Always() != nil {
		t.Fatal("disabled tracer Always returned a ctx")
	}
}

func TestSamplingRatio(t *testing.T) {
	tr := New(Config{SampleN: 8})
	tr.Enable()
	hits := 0
	for i := 0; i < 800; i++ {
		if ctx := tr.Sample(); ctx != nil {
			hits++
			if ctx.TraceID() == 0 {
				t.Fatal("sampled ctx with zero trace ID")
			}
		}
	}
	if hits != 100 {
		t.Errorf("sampled %d of 800 at 1-in-8, want 100", hits)
	}
	if _, _, sampled := tr.Stats(); sampled != 100 {
		t.Errorf("sampled counter %d, want 100", sampled)
	}
}

func TestSampleNRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultSampleN}, {-3, DefaultSampleN}, {1, 1}, {2, 2}, {3, 4},
		{64, 64}, {100, 128},
	} {
		if got := New(Config{SampleN: tc.in}).SampleN(); got != tc.want {
			t.Errorf("SampleN %d -> %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTraceIDsAreDenseAndDistinct(t *testing.T) {
	tr := New(Config{SampleN: 1})
	tr.Enable()
	for want := uint64(1); want <= 5; want++ {
		ctx := tr.Sample()
		if ctx == nil || ctx.TraceID() != want {
			t.Fatalf("trace ID %v, want %d", ctx.TraceID(), want)
		}
	}
	if ctx := tr.Always(); ctx.TraceID() != 6 {
		t.Fatalf("Always trace ID %d, want 6", ctx.TraceID())
	}
}

func TestRingWrapAndDropCounter(t *testing.T) {
	tr := New(Config{SampleN: 1, Capacity: 4})
	tr.Enable()
	ctx := tr.Always()
	base := time.Now()
	for i := 0; i < 7; i++ {
		ctx.Record(StageHandle, "p", "ping", base.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest-first: the survivors are records 3..6.
	for i, sp := range spans {
		if want := base.Add(time.Duration(i+3) * time.Millisecond); !sp.Start.Equal(want) {
			t.Errorf("span %d start %v, want %v", i, sp.Start, want)
		}
	}
	total, dropped, _ := tr.Stats()
	if total != 7 || dropped != 3 {
		t.Errorf("total=%d dropped=%d, want 7/3", total, dropped)
	}

	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Error("Reset left spans behind")
	}
}

func TestInstrumentFeedsStageHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{SampleN: 1})
	tr.Instrument(reg)
	tr.Enable()
	tr.Always().Record(StageWireDecode, "p", "ping", time.Now(), 2*time.Millisecond)
	tr.Always().Add(Span{Stage: StageMisbehave, Rule: "AddrOversize", Duration: time.Millisecond})

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`trace_stage_seconds_bucket{stage="wire_decode",le="+Inf"} 1`,
		`trace_stage_seconds_bucket{stage="misbehave",le="+Inf"} 1`,
		"trace_spans_total 2",
		"trace_sampled_messages_total 2",
		"trace_spans_dropped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(Config{SampleN: 1, Capacity: 128})
	tr.Enable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if ctx := tr.Sample(); ctx != nil {
					ctx.Record(StageHandle, "p", "ping", time.Now(), time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	total, dropped, sampled := tr.Stats()
	if sampled != 1600 || total != 1600 {
		t.Errorf("sampled=%d total=%d, want 1600", sampled, total)
	}
	if dropped != 1600-128 {
		t.Errorf("dropped=%d, want %d", dropped, 1600-128)
	}
}

func TestQueryHandlerFilters(t *testing.T) {
	tr := New(Config{SampleN: 1})
	tr.Enable()
	a := tr.Sample()
	a.Record(StageWireDecode, "1.1.1.1:1", "addr", time.Now(), time.Millisecond)
	a.Record(StageHandle, "1.1.1.1:1", "addr", time.Now(), time.Millisecond)
	b := tr.Sample()
	b.Record(StageHandle, "2.2.2.2:2", "ping", time.Now(), time.Millisecond)

	get := func(path string) queryResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		tr.QueryHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	all := get("/debug/trace")
	if !all.Enabled || all.SampleN != 1 || len(all.Spans) != 3 || all.Total != 3 {
		t.Fatalf("unfiltered response: %+v", all)
	}
	if got := get("/debug/trace?peer=1.1.1.1:1"); len(got.Spans) != 2 {
		t.Errorf("peer filter returned %d spans, want 2", len(got.Spans))
	}
	if got := get("/debug/trace?stage=handle"); len(got.Spans) != 2 {
		t.Errorf("stage filter returned %d spans, want 2", len(got.Spans))
	}
	if got := get("/debug/trace?cmd=ping"); len(got.Spans) != 1 {
		t.Errorf("cmd filter returned %d spans, want 1", len(got.Spans))
	}
	if got := get("/debug/trace?trace=1"); len(got.Spans) != 2 {
		t.Errorf("trace filter returned %d spans, want 2", len(got.Spans))
	}
	if got := get("/debug/trace?n=1"); len(got.Spans) != 1 || got.Spans[0].Cmd != "ping" {
		t.Errorf("tail filter returned %+v", got.Spans)
	}
	if got := get("/debug/trace?peer=nobody"); got.Spans == nil || len(got.Spans) != 0 {
		t.Errorf("empty filter must serve [], got %+v", got.Spans)
	}
}
