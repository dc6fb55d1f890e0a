package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"deepod"
	"deepod/internal/citysim"
	"deepod/internal/core"
	"deepod/internal/dataset"
	"deepod/internal/infer"
	"deepod/internal/roadnet"
)

// syncBuffer is a bytes.Buffer the server's logger and the test may use
// from different goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// doJSON sends one request and returns the status code with the decoded
// JSON body.
func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// TestRunServesCheckpoint starts tteserve with no tuning flag from an
// untrained checkpoint on a loopback port: it must become ready, answer
// estimates (from concurrent clients) as that checkpoint, run the engine at
// internal/infer's defaults, and drain and return 0 when its context is
// cancelled.
func TestRunServesCheckpoint(t *testing.T) {
	const orders = "200"
	c, err := deepod.BuildCity("chengdu-s", deepod.CityOptions{Orders: 200})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(deepod.SmallConfig(), c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := infer.LoadCheckpoint(path, c.Graph)
	if err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-city", "chengdu-s", "-orders", orders, "-model", path, "-addr", addr}, &logs)
	}()
	base := "http://" + addr

	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case code := <-done:
			t.Fatalf("run returned %d before it was ready:\n%s", code, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("not ready after a minute:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	const od = `{"origin":{"X":500,"Y":700},"dest":{"X":1900,"Y":2100},"depart_sec":36000}`
	code, est := doJSON(t, http.MethodPost, base+"/estimate", od)
	if code != http.StatusOK || est["model"] != snap.ID {
		t.Fatalf("POST /estimate = %d %v, want 200 from model %s", code, est, snap.ID)
	}
	if _, ok := est["travel_seconds"].(float64); !ok {
		t.Fatalf("travel_seconds = %v", est["travel_seconds"])
	}
	// A departure whose slot overflows an int is a client error, not a panic.
	if code, body := doJSON(t, http.MethodPost, base+"/estimate", strings.Replace(od, "36000", "1e300", 1)); code != http.StatusBadRequest {
		t.Fatalf("POST /estimate at depart_sec 1e300 = %d %v, want 400", code, body)
	}

	// Concurrent clients through the engine: distinct ODs miss the cache,
	// repeats hit it.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := fmt.Sprintf(`{"origin":{"X":%d,"Y":700},"dest":{"X":1900,"Y":%d},"depart_sec":36000}`, 500+40*g, 2100-40*i)
				resp, err := http.Post(base+"/estimate", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST /estimate %s: %d", body, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// With no tuning flag the engine runs at internal/infer's defaults and
	// a -cache of 8192 entries.
	code, v := doJSON(t, http.MethodGet, base+"/version", "")
	if code != http.StatusOK {
		t.Fatalf("GET /version = %d %v", code, v)
	}
	want := map[string]any{
		"model":         snap.ID,
		"workers":       float64(runtime.GOMAXPROCS(0)),
		"queue_depth":   float64(256),
		"max_batch":     float64(16),
		"queue_timeout": "2s",
		"cache_entries": float64(8192),
		"cache_ttl":     "5m0s",
	}
	for k, w := range want {
		if v[k] != w {
			t.Errorf("/version %s = %v, want %v", k, v[k], w)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run returned %d after cancel:\n%s", code, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not return after cancel:\n%s", logs.String())
	}
	if l := logs.String(); !strings.Contains(l, "shutting down") || !strings.Contains(l, "bye") {
		t.Fatalf("no drain in the log:\n%s", l)
	}
}

// TestRunRejectsRemovedFlags: a tuning value that is not a flag (these
// are package defaults) is a usage error, status 2, before anything is
// built.
func TestRunRejectsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-batch", "4"},
		{"-queue-timeout", "1s"},
		{"-log-spans"},
		{"-burn-fast", "6"},
		{"-traffic-cell", "200"},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), args, &stderr); code != 2 {
			t.Errorf("run %v = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("run %v: stderr %q names no undefined flag", args, stderr.String())
		}
	}
}

// TestTrainAtStartupRefusesCollapsed: the startup path refuses the model
// core's TestTrainDetectsCollapse pins as collapsed — its world (a 6×6
// grid city, 800 orders) and its tiny configuration with the two-way
// binding at w = 0.9 — with the refusal ttetrain gives, and serves the same
// world's w = 0.1 model.
func TestTrainAtStartupRefusesCollapsed(t *testing.T) {
	rcfg := roadnet.SmallCity("test", 5)
	rcfg.Rows, rcfg.Cols = 6, 6
	g, err := roadnet.GenerateCity(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := citysim.NewTraffic(g, 14*24*3600, 5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := citysim.NewSpeedGridder(tf, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := citysim.NewGenerator(tf, grid, citysim.DefaultOrderConfig(800, 5))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.ChronoSplit(recs, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &deepod.City{Name: "test", Graph: g, Traffic: tf, Grid: grid, Records: recs, Split: split}
	cfg := deepod.SmallConfig() // core's tinyConfig
	cfg.Ds, cfg.Dt = 8, 8
	cfg.D1m, cfg.D2m, cfg.D3m, cfg.D4m = 16, 8, 16, 8
	cfg.D5m, cfg.D6m, cfg.D7m, cfg.D9m = 16, 8, 16, 16
	cfg.Dh, cfg.Dtraf = 16, 8
	cfg.SlotDelta = 30 * time.Minute
	cfg.Epochs = 4
	cfg.EmbedWalks, cfg.EmbedEpochs = 4, 2

	cfg.AuxWeight = 0.9
	snap, err := trainAtStartup(cfg, c, 1)
	if err == nil || snap != nil || !strings.HasPrefix(err.Error(), "collapsed model: ") {
		t.Fatalf("w = 0.9: trainAtStartup = %v, %v; want the collapsed-model refusal", snap, err)
	}
	cfg.AuxWeight = 0.1
	if snap, err := trainAtStartup(cfg, c, 1); err != nil || snap == nil {
		t.Fatalf("w = 0.1: trainAtStartup = %v, %v; want a model", snap, err)
	}
}
