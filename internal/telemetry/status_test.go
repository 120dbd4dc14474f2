package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestStatusEndpoint(t *testing.T) {
	ring := NewRingSink(16)
	r := New(ring)
	r.SetWorkers(3)
	r.AddSpanTime("mGP", "density", time.Second)
	r.Count("engine/grad_evals", 12)
	r.Sample(Sample{Stage: "mGP", Iteration: 5, HPWL: 1234, Overflow: 0.42})

	srv, err := ServeStatus("127.0.0.1:0", r, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	for _, path := range []string{"/", "/status"} {
		code, body := getBody(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s -> %d", path, code)
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("decode %s: %v\n%s", path, err, body)
		}
		if snap.Stage != "mGP" || snap.Iteration != 5 || snap.HPWL != 1234 ||
			snap.Overflow != 0.42 || snap.Workers != 3 || snap.Samples != 1 {
			t.Errorf("%s snapshot = %+v", path, snap)
		}
		if len(snap.Spans) != 1 || snap.Spans[0].Kernel != "density" {
			t.Errorf("%s spans = %+v", path, snap.Spans)
		}
		if len(snap.Counters) != 1 || snap.Counters[0].Value != 12 {
			t.Errorf("%s counters = %+v", path, snap.Counters)
		}
	}

	code, body := getBody(t, base+"/samples")
	if code != http.StatusOK {
		t.Fatalf("GET /samples -> %d", code)
	}
	var samples []Sample
	if err := json.Unmarshal([]byte(body), &samples); err != nil {
		t.Fatalf("decode samples: %v", err)
	}
	if len(samples) != 1 || samples[0].HPWL != 1234 {
		t.Errorf("samples = %+v", samples)
	}

	if code, body = getBody(t, base+"/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, `"eplace"`) {
		t.Errorf("expvar -> %d, eplace var present=%v", code, strings.Contains(body, `"eplace"`))
	}
	if code, _ = getBody(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index -> %d", code)
	}
	if code, _ = getBody(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline -> %d", code)
	}
	if code, _ = getBody(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path -> %d, want 404", code)
	}
}

func TestServeStatusBadAddr(t *testing.T) {
	if _, err := ServeStatus("256.256.256.256:99999", New(), nil); err == nil {
		t.Error("expected error for bad address")
	}
}

func TestStatusServesLatestRecorder(t *testing.T) {
	// Publishing expvar twice must not panic, and the var must follow
	// the most recent recorder.
	r1 := New(NewRingSink(1))
	r1.Sample(Sample{Stage: "old"})
	s1, err := ServeStatus("127.0.0.1:0", r1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	r2 := New(NewRingSink(1))
	r2.Sample(Sample{Stage: "new"})
	s2, err := ServeStatus("127.0.0.1:0", r2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, body := getBody(t, fmt.Sprintf("http://%s/debug/vars", s2.Addr()))
	if !strings.Contains(body, `"stage": "new"`) && !strings.Contains(body, `"stage":"new"`) {
		t.Errorf("expvar still serves old recorder:\n%s", body)
	}
}
