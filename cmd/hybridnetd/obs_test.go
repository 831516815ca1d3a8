package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestTraceHeaderPropagation pins the trace contract at the daemon edge: a
// well-formed caller-sent X-Hybridnet-Trace is echoed verbatim (the router
// relies on this to stitch fleet-wide traces), anything else gets a freshly
// minted valid ID.
func TestTraceHeaderPropagation(t *testing.T) {
	srv, _ := newTestServer(t)

	post := func(traceHeader string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/classify",
			strings.NewReader(`{"sign":"stop","seed":3}`))
		if err != nil {
			t.Fatal(err)
		}
		if traceHeader != "" {
			req.Header.Set(obs.TraceHeader, traceHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp
	}

	if got := post("router-abc123.7").Header.Get(obs.TraceHeader); got != "router-abc123.7" {
		t.Errorf("propagated trace %q, want the caller's router-abc123.7", got)
	}
	if got := post("").Header.Get(obs.TraceHeader); !obs.ValidTraceID(got) {
		t.Errorf("minted trace %q is not a valid ID", got)
	}
	// A malformed incoming ID must be replaced, not echoed (header injection).
	if got := post("bad id\twith\tjunk").Header.Get(obs.TraceHeader); !obs.ValidTraceID(got) || strings.Contains(got, " ") {
		t.Errorf("malformed incoming trace not replaced: %q", got)
	}
}

// TestSpansSumToLatency is the tracing acceptance check: the top-level span
// durations in X-Hybridnet-Spans must tile the request's wall clock
// exactly — every span and latency_ms derive from the same timestamps — so
// their sum may differ from latency_ms only by the formats' rounding: half
// a microsecond per span (FormatSpans rounds to 0.001 ms) plus the
// microsecond latency_ms truncates.
func TestSpansSumToLatency(t *testing.T) {
	srv, _ := newTestServer(t)
	wantStages := []string{"admission", "queue", "batch", "backend", "deliver"}

	for i := 0; i < 5; i++ {
		resp, got, _ := postClassify(t, srv.URL, fmt.Sprintf(`{"sign":"stop","seed":%d}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		spans, err := obs.ParseSpans(resp.Header.Get(obs.SpansHeader))
		if err != nil {
			t.Fatalf("spans header %q: %v", resp.Header.Get(obs.SpansHeader), err)
		}
		names := make(map[string]bool, len(spans))
		for _, s := range spans {
			names[s.Name] = true
		}
		for _, want := range wantStages {
			if !names[want] {
				t.Fatalf("span %q missing from %q", want, resp.Header.Get(obs.SpansHeader))
			}
		}
		sum := obs.SumTopLevel(spans).Seconds() * 1000 // ms
		total := got.LatencyMS
		diff := total - sum
		if diff < 0 {
			diff = -diff
		}
		var top int
		for _, s := range spans {
			if !s.Sub() {
				top++
			}
		}
		tol := 0.0005*float64(top) + 0.001 + 1e-9 // ms: rounding only
		if diff > tol {
			t.Errorf("request %d: spans sum %.3fms vs end-to-end %.3fms — gap %.3fms exceeds %.3fms",
				i, sum, total, diff, tol)
		}
	}
}

// TestMetricsMatchesStats scrapes /metrics and /stats from the same quiesced
// process and cross-checks them: counters equal exactly, and the p50/p99 a
// Prometheus scraper would compute from the exposed buckets equals the /stats
// quantile to within one bucket width (19%) — the two endpoints are views
// over the same snapshot and can never disagree.
func TestMetricsMatchesStats(t *testing.T) {
	srv, _ := newTestServer(t)
	for i := 0; i < 12; i++ {
		if resp, _, _ := postClassify(t, srv.URL, fmt.Sprintf(`{"sign":"yield","seed":%d}`, i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d: status %d", i, resp.StatusCode)
		}
	}

	// No traffic in flight: the two snapshots must agree exactly.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(string(raw))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v\n%s", err, raw)
	}

	counter := func(name string) float64 {
		t.Helper()
		f := fams[name]
		if f == nil || len(f.Samples) == 0 {
			t.Fatalf("family %s missing from /metrics", name)
		}
		return f.Samples[0].Value
	}
	if got := counter("hybridnet_requests_completed_total"); got != float64(st.Completed) {
		t.Errorf("completed_total = %v, /stats says %d", got, st.Completed)
	}
	if got := counter("hybridnet_requests_submitted_total"); got != float64(st.Submitted) {
		t.Errorf("submitted_total = %v, /stats says %d", got, st.Submitted)
	}
	if got := counter("hybridnet_batches_total"); got != float64(st.Batches) {
		t.Errorf("batches_total = %v, /stats says %d", got, st.Batches)
	}
	if fams["hybridnet_build_info"] == nil {
		t.Error("hybridnet_build_info missing from /metrics")
	}

	f := fams["hybridnet_request_latency_seconds"]
	if f == nil {
		t.Fatal("hybridnet_request_latency_seconds missing from /metrics")
	}
	for _, p := range []float64{0.50, 0.99} {
		// The family now carries per-class series alongside the aggregate;
		// class="" selects the unlabeled view (PromQL treats a missing
		// label as empty).
		metricsQ, err := obs.HistogramQuantile(f, p, map[string]string{"class": ""})
		if err != nil {
			t.Fatalf("HistogramQuantile(%v): %v", p, err)
		}
		statsQ := st.LatencyHist.Quantile(p).Seconds()
		if metricsQ < statsQ || metricsQ > statsQ*1.20 {
			t.Errorf("p%.0f: metrics %.6fs vs stats %.6fs — want within one bucket (19%%)",
				p*100, metricsQ, statsQ)
		}
	}
}

// TestDebugRequestsFlightRecorder drives traffic and checks the flight
// recorder surfaces it: /debug/requests returns the recent ring newest-first
// with valid trace IDs and full span breakdowns.
func TestDebugRequestsFlightRecorder(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 6
	traces := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		resp, _, _ := postClassify(t, srv.URL, fmt.Sprintf(`{"sign":"stop","seed":%d}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d: status %d", i, resp.StatusCode)
		}
		traces[resp.Header.Get(obs.TraceHeader)] = true
	}

	resp, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.RecorderDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if dump.Total != n {
		t.Errorf("recorder total %d, want %d", dump.Total, n)
	}
	if len(dump.Recent) != n || len(dump.Slowest) != n {
		t.Fatalf("recorder holds %d recent / %d slowest, want %d each",
			len(dump.Recent), len(dump.Slowest), n)
	}
	for i, r := range dump.Recent {
		if !traces[r.ID] {
			t.Errorf("recent[%d] trace %q was never returned to a client", i, r.ID)
		}
		if r.Status != http.StatusOK || r.Total <= 0 || len(r.Spans) == 0 {
			t.Errorf("recent[%d] incomplete: status=%d total=%v spans=%d",
				i, r.Status, r.Total, len(r.Spans))
		}
		if i > 0 && r.Start.After(dump.Recent[i-1].Start) {
			t.Errorf("recent not newest-first at %d", i)
		}
	}
	for i := 1; i < len(dump.Slowest); i++ {
		if dump.Slowest[i].Total > dump.Slowest[i-1].Total {
			t.Errorf("slowest not descending at %d", i)
		}
	}
}
