package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clusterq/internal/obs/trace"
)

// TestMuxEndpoints exercises every endpoint group against a live registry
// and recorder.
func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "requests").Add(3)
	reg.Gauge("load", "load").Set(0.5)
	rec := trace.NewRecorder(0)
	rec.Record(trace.Event{T: 0, Kind: trace.KindArrival, Class: 0, Job: 1, Station: -1})
	rec.Record(trace.Event{T: 1, Kind: trace.KindServiceStart, Class: 0, Job: 1, Station: 0})
	rec.Record(trace.Event{T: 2, Kind: trace.KindServiceStop, Class: 0, Job: 1, Station: 0})
	rec.Record(trace.Event{T: 2, Kind: trace.KindExit, Class: 0, Job: 1, Station: -1, Value: float64(trace.OutcomeCompleted)})

	srv := httptest.NewServer(Mux(reg, rec))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "requests_total 3") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body = get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: code %d", code)
	}
	var snaps struct {
		Metrics []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if len(snaps.Metrics) != 2 {
		t.Errorf("/metrics.json has %d metrics, want 2", len(snaps.Metrics))
	}

	code, body = get("/trace")
	if code != 200 {
		t.Fatalf("/trace: code %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/trace empty")
	}

	// drain=1 empties the ring; a second drain sees only metadata.
	get("/trace?drain=1")
	if n := len(rec.Events()); n != 0 {
		t.Errorf("ring holds %d events after drain", n)
	}

	code, body = get("/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	code, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
}

// TestMuxNilBackends: endpoints stay well-formed with nothing attached.
func TestMuxNilBackends(t *testing.T) {
	srv := httptest.NewServer(Mux(nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/metrics.json", "/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: code %d", path, resp.StatusCode)
		}
		if path != "/metrics" {
			var v any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Errorf("%s: invalid JSON %q", path, body)
			}
		}
	}
}

// TestListenAndServe binds an ephemeral port and round-trips a metric.
func TestListenAndServe(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("up", "liveness").Set(1)
	addr, stop, err := ListenAndServe("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), "up 1") {
		t.Errorf("metrics body %q", body)
	}
	if _, _, err := ListenAndServe(addr, reg, nil); err == nil {
		t.Error("double bind succeeded")
	}
}
