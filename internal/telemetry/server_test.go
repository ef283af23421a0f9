package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// get fetches path from the live server and returns status code and body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricSimInstr, "instructions").Add(42)
	reg.Gauge(MetricSweepTasks, "tasks").Set(3)
	tr := NewTracer()
	tr.Begin("sweep", "all")()

	s, err := Serve("127.0.0.1:0", "testtool", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() == "" {
		t.Fatal("no bound address")
	}

	// Starting: live but not ready.
	if code, body := get(t, s, "/healthz"); code != 200 || !strings.Contains(body, "starting") {
		t.Fatalf("healthz starting = %d %q", code, body)
	}
	if code, _ := get(t, s, "/readyz"); code != 503 {
		t.Fatalf("readyz starting = %d, want 503", code)
	}

	s.SetReady()
	if code, body := get(t, s, "/healthz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("healthz ready = %d %q", code, body)
	}
	if code, _ := get(t, s, "/readyz"); code != 200 {
		t.Fatalf("readyz ready = %d, want 200", code)
	}

	code, body := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE " + MetricSimInstr + " counter",
		MetricSimInstr + " 42",
		MetricSweepTasks + " 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, s, "/status")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var doc StatusDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("status json: %v", err)
	}
	if doc.Tool != "testtool" || doc.State != "ready" || doc.Spans != 1 {
		t.Fatalf("status doc = %+v", doc)
	}
	if doc.Series[MetricSimInstr] != 42 {
		t.Fatalf("status series = %v", doc.Series)
	}

	// Draining: healthz and readyz flip to 503; metrics keep serving.
	s.SetDraining()
	if code, body := get(t, s, "/healthz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("healthz draining = %d %q", code, body)
	}
	if code, _ := get(t, s, "/readyz"); code != 503 {
		t.Fatalf("readyz draining = %d", code)
	}
	if code, _ := get(t, s, "/metrics"); code != 200 {
		t.Fatalf("metrics while draining = %d", code)
	}
	// SetReady must not resurrect a draining server.
	s.SetReady()
	if s.State() != HealthDraining {
		t.Fatal("SetReady resurrected a draining server")
	}
}

// TestServerHardenedTimeouts: Serve must apply every hardened limit, not
// just the header timeout — a slowloris that got its header in on time
// could otherwise hold a connection open forever with a dripped body or an
// unread response.
func TestServerHardenedTimeouts(t *testing.T) {
	s, err := Serve("127.0.0.1:0", "testtool", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.srv.ReadHeaderTimeout; got != ReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, ReadHeaderTimeout)
	}
	if got := s.srv.ReadTimeout; got != ReadTimeout {
		t.Errorf("ReadTimeout = %v, want %v", got, ReadTimeout)
	}
	if got := s.srv.WriteTimeout; got != WriteTimeout {
		t.Errorf("WriteTimeout = %v, want %v", got, WriteTimeout)
	}
	if got := s.srv.IdleTimeout; got != IdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", got, IdleTimeout)
	}
	if got := s.srv.MaxHeaderBytes; got != MaxHeaderBytes {
		t.Errorf("MaxHeaderBytes = %d, want %d", got, MaxHeaderBytes)
	}
}

// TestStalledClientDisconnected: a client that opens a connection and never
// finishes its request header is cut off once the read deadline passes,
// instead of pinning a server goroutine until the heat death of CI. The
// test shrinks the timeout on a NewHTTPServer-built server so the reap is
// observable in milliseconds; production keeps the package defaults.
func TestStalledClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer("testtool", NewRegistry(), nil)
	srv := NewHTTPServer(s.Handler())
	srv.ReadHeaderTimeout = 150 * time.Millisecond
	srv.ReadTimeout = 150 * time.Millisecond
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then stall: the server must hang up on its own.
	if _, err := conn.Write([]byte("GET /metrics HT")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("expected server-side close (EOF), got read error %v", err)
	}
}

func TestServerNil(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.State() != HealthStarting {
		t.Fatal("nil server state")
	}
	s.SetReady()
	s.SetDraining()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeat(t *testing.T) {
	reg := NewRegistry()
	NewSweepMetrics(reg).OnPlan(6, 2)
	reg.Counter(MetricMemoHits, "").Add(81)
	reg.Counter(MetricMemoMisses, "").Add(19)
	reg.Gauge(MetricFrontierSize, "").Set(2)
	reg.Counter(MetricSimInstr, "").Add(5_000_000)

	var buf syncBuffer
	h := StartHeartbeat(HeartbeatConfig{
		Tool: "testtool", Interval: 10 * time.Millisecond, Registry: reg, Out: &buf,
	})
	if h == nil {
		t.Fatal("heartbeat did not start")
	}
	deadline := time.Now().Add(5 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	reg.Counter(MetricSimInstr, "").Add(1_000_000)
	h.Stop()

	out := buf.String()
	for _, want := range []string{
		"msg=heartbeat", "tool=testtool", "done=2", "total=6",
		"memo_hit_rate=0.81", "frontier=2", "final=true",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("heartbeat missing %q in:\n%s", want, out)
		}
	}

	// Disabled configurations return nil, and nil Stop no-ops.
	if StartHeartbeat(HeartbeatConfig{Interval: 0, Registry: reg}) != nil {
		t.Fatal("zero interval started a heartbeat")
	}
	if StartHeartbeat(HeartbeatConfig{Interval: time.Second}) != nil {
		t.Fatal("nil registry started a heartbeat")
	}
	var none *Heartbeat
	none.Stop()
}

// syncBuffer is a goroutine-safe strings.Builder for capturing heartbeat
// output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
