package citysim

import (
	"testing"

	"deepod/internal/roadnet"
	"deepod/internal/traj"
)

// presetTraffic is the traffic field of a city preset over four weeks, the
// world deepod.BuildCity builds with its default options.
func presetTraffic(b *testing.B, name string) *Traffic {
	b.Helper()
	cfg, err := roadnet.CityPreset(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed++
	g, err := roadnet.GenerateCity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := NewTraffic(g, 28*86400, 8)
	if err != nil {
		b.Fatal(err)
	}
	return tf
}

// BenchmarkMatrixAtFirstTouch is one period's first MatrixAt on beijing-s
// (250 m cells, 5 min periods): every edge's speed at the period's start and
// every cell's average. Each op touches a period no earlier op touched; a
// fresh gridder replaces a spent one off the clock.
func BenchmarkMatrixAtFirstTouch(b *testing.B) {
	tf := presetTraffic(b, "beijing-s")
	fresh := func() *SpeedGridder {
		sg, err := NewSpeedGridder(tf, 250, 300)
		if err != nil {
			b.Fatal(err)
		}
		return sg
	}
	sg := fresh()
	periods := int(tf.Horizon() / sg.PeriodSec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % periods
		if p == 0 && i > 0 {
			b.StopTimer()
			sg = fresh()
			b.StartTimer()
		}
		sg.MatrixAt(float64(p) * sg.PeriodSec)
	}
}

// BenchmarkExternal is the per-request lookup of a departure's external
// features on beijing-s (250 m cells, 5 min periods) once its period is
// touched: the ops rotate over a day of warm periods, each at a departure
// inside its period, as a stream of requests reads them. 0 allocs/op.
func BenchmarkExternal(b *testing.B) {
	tf := presetTraffic(b, "beijing-s")
	sg, err := NewSpeedGridder(tf, 250, 300)
	if err != nil {
		b.Fatal(err)
	}
	const periods = 288
	for p := 0; p < periods; p++ {
		sg.External(float64(p) * sg.PeriodSec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % periods
		externalSink = sg.External(float64(p)*sg.PeriodSec + float64(i%7)*40)
	}
}

// externalSink keeps BenchmarkExternal's calls from being optimised away.
var externalSink *traj.ExternalFeatures

// BenchmarkGenerate synthesises chengdu-s orders (routing through the
// drivers' perceived costs, driving the route, tracing its GPS) without
// external features, whose matrices BenchmarkMatrixAtFirstTouch covers.
// Every op generates the same 100 orders.
func BenchmarkGenerate(b *testing.B) {
	tf := presetTraffic(b, "chengdu-s")
	const orders = 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := NewGenerator(tf, nil, DefaultOrderConfig(orders, 14))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Generate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(orders*b.N)/b.Elapsed().Seconds(), "orders/s")
}
