package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// newTestServer wires a demo hybrid network behind the real scheduler and
// HTTP mux, exactly as run() does.
func newTestServer(t *testing.T) (*httptest.Server, *core.HybridNetwork) {
	t.Helper()
	h, _, err := cli.DemoHybrid(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := h.NewBatchClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := serve.New(bc, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(sched, 10*time.Second, 32)
	s.rec = obs.NewRecorder(8)
	srv := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sched.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
	})
	return srv, h
}

func postClassify(t *testing.T, url string, body string) (*http.Response, classifyResponse, errorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var ok classifyResponse
	var fail errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &ok); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	} else if err := json.Unmarshal(buf.Bytes(), &fail); err != nil {
		t.Fatalf("decode error body %q: %v", buf.String(), err)
	}
	return resp, ok, fail
}

func TestClassifySign(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, got, _ := postClassify(t, srv.URL, `{"sign":"stop","seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.ClassName == "" || got.Decision == "" || got.QualifierShape == "" {
		t.Fatalf("incomplete response: %+v", got)
	}
	if got.ReliableOps == 0 {
		t.Fatal("reliable path reported zero ops")
	}
}

func TestClassifyPNGRoundTrip(t *testing.T) {
	srv, h := newTestServer(t)
	rng := rand.New(rand.NewSource(9))
	img, err := gtsrb.AngledStopSign(32, rng)
	if err != nil {
		t.Fatal(err)
	}
	var png bytes.Buffer
	if err := gtsrb.WritePNG(img, &png); err != nil {
		t.Fatal(err)
	}
	// The served verdict must match a direct Classify of the identical
	// PNG-decoded image — the HTTP + scheduler path adds no drift.
	decoded, err := gtsrb.ReadPNG(bytes.NewReader(png.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Classify(decoded)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(classifyRequest{ImagePNG: base64.StdEncoding.EncodeToString(png.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	resp, got, _ := postClassify(t, srv.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Class != want.Class || got.Decision != want.Decision.String() ||
		got.QualifierShape != want.Qualifier.Class.String() || got.ReliableOps != want.Stats.Ops {
		t.Fatalf("served (%d,%s,%s,%d) != direct (%d,%v,%v,%d)",
			got.Class, got.Decision, got.QualifierShape, got.ReliableOps,
			want.Class, want.Decision, want.Qualifier.Class, want.Stats.Ops)
	}
}

func TestClassifyBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	// A well-formed PNG of the wrong size must be rejected at admission —
	// inside a micro-batch it would otherwise fail its co-batched riders.
	wrongSize, err := gtsrb.AngledStopSign(16, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var png bytes.Buffer
	if err := gtsrb.WritePNG(wrongSize, &png); err != nil {
		t.Fatal(err)
	}
	cases := []string{
		`not json`,
		`{}`,
		`{"sign":"no-such-sign"}`,
		`{"sign":"stop","image_png":"AAAA"}`,
		`{"image_png":"!!!"}`,
		fmt.Sprintf(`{"image_png":%q}`, base64.StdEncoding.EncodeToString(png.Bytes())),
	}
	for _, body := range cases {
		resp, _, fail := postClassify(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if fail.Error == "" {
			t.Errorf("body %q: missing error message", body)
		}
	}
	resp, err := http.Get(srv.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /classify: status %d, want 405", resp.StatusCode)
	}
}

// hugePNGHeader hand-builds the header of a w×h RGB PNG: signature, IHDR,
// an IDAT holding only the zlib stream header (no pixel data) and IEND — a
// few dozen bytes claiming a huge canvas that a decoder allocates before it
// finds the data missing.
func hugePNGHeader(w, h uint32) []byte {
	var b bytes.Buffer
	b.WriteString("\x89PNG\r\n\x1a\n")
	chunk := func(typ string, data []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(data)))
		b.Write(n[:])
		crc := crc32.NewIEEE()
		crc.Write([]byte(typ))
		crc.Write(data)
		b.WriteString(typ)
		b.Write(data)
		binary.BigEndian.PutUint32(n[:], crc.Sum32())
		b.Write(n[:])
	}
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], w)
	binary.BigEndian.PutUint32(ihdr[4:], h)
	ihdr[8], ihdr[9] = 8, 2 // 8-bit RGB; compression, filter, interlace 0
	chunk("IHDR", ihdr)
	chunk("IDAT", []byte{0x78, 0x9c})
	chunk("IEND", nil)
	return b.Bytes()
}

// TestClassifyRejectsHugePNGBeforeDecoding: an image's size is checked
// from its PNG header before any pixel buffer exists, so a tiny body
// claiming an 8000×8000 canvas is a cheap 400 naming the size instead of a
// ~256 MB allocation.
func TestClassifyRejectsHugePNGBeforeDecoding(t *testing.T) {
	srv, _ := newTestServer(t)
	body := fmt.Sprintf(`{"image_png":%q}`, base64.StdEncoding.EncodeToString(hugePNGHeader(8000, 8000)))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, _, fail := postClassify(t, srv.URL, body)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(fail.Error, "8000x8000") {
		t.Errorf("error %q does not name the claimed size", fail.Error)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("rejecting the header allocated %d MiB", grew>>20)
	}
}

func TestHealthzAndStats(t *testing.T) {
	srv, _ := newTestServer(t)
	// Put one request through so stats are non-trivial.
	if resp, _, _ := postClassify(t, srv.URL, `{"sign":"yield"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Completed < 1 || stats.Batches < 1 || len(stats.BatchHist) == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.LatencyP50 <= 0 || stats.LatencyP99 < stats.LatencyP50 {
		t.Fatalf("latency quantiles inconsistent: p50=%v p99=%v", stats.LatencyP50, stats.LatencyP99)
	}
}

// gatedBackend holds every batch until the gate yields.
type gatedBackend struct{ gate chan struct{} }

func (b gatedBackend) ClassifyBatch(imgs []*tensor.Tensor, _ []core.Pipeline) ([]core.Result, core.StageTimes, error) {
	<-b.gate
	return make([]core.Result, len(imgs)), core.StageTimes{}, nil
}

// TestClassifyStatusMapping pins the error-to-status contract: a client that
// disconnects before the verdict gets the nginx-style 499 (no Retry-After),
// while 503 + Retry-After stays reserved for real load shedding
// (ErrQueueFull) so overload statistics are not polluted by client churn.
func TestClassifyStatusMapping(t *testing.T) {
	gate := make(chan struct{})
	// QueueSize 2: the cancelled client's request keeps its queue slot until
	// the flusher drains it, so the second slot is for the queued request
	// and the third submission sheds.
	sched, err := serve.New(gatedBackend{gate}, serve.Config{MaxBatch: 1, QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(sched, time.Second, 32)

	// Occupy the flusher inside the gated backend.
	occupied := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), tensor.MustNew(3, 32, 32))
		occupied <- err
	}()
	waitForCond(t, "flusher occupied", func() bool {
		st := sched.Stats()
		return st.Submitted == 1 && st.QueueDepth == 0
	})

	// Client gone: request context cancelled before the scheduler answers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/classify",
		strings.NewReader(`{"sign":"stop","seed":1}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.handleClassify(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("client-gone status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("client-gone response carries Retry-After %q — conflated with load shedding", ra)
	}

	// Queue full: one more queued request takes the second and last slot
	// (the cancelled client's request still holds the first), so the next
	// submission must shed with 503 + Retry-After.
	queued := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), tensor.MustNew(3, 32, 32))
		queued <- err
	}()
	waitForCond(t, "queue full", func() bool { return sched.Stats().QueueDepth == 2 })
	req = httptest.NewRequest(http.MethodPost, "/classify",
		strings.NewReader(`{"sign":"stop","seed":2}`))
	rec = httptest.NewRecorder()
	srv.handleClassify(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("load-shedding 503 lost its Retry-After")
	}

	close(gate)
	if err := <-occupied; err != nil {
		t.Fatalf("occupying request: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := sched.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}

// waitForCond polls cond for up to 5s.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no -model/-demo accepted")
	}
	if err := run([]string{"-demo", "-model", "x.json"}); err == nil {
		t.Error("-demo with -model accepted")
	}
}
