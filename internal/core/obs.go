package core

import (
	"deepod/internal/obs"
)

// Training and traffic-code metrics (see the obs package doc for the full
// naming scheme). Resolved once at init so the hot loops touch only atomics:
// Train observes per-step phase durations, the traffic-code memo counts one
// hit or miss per estimate that carries a speed matrix. The online
// encode/estimate stages are obs spans (EstimateCtx), so they both feed
// tte_span_seconds and join request traces.
var (
	embedPhaseHist    = obs.Default().Histogram("tte_train_phase_seconds", obs.DefBuckets, "phase", "embed_pretrain")
	embedWalksHist    = obs.Default().Histogram("tte_train_phase_seconds", obs.DefBuckets, "phase", "embed_walks")
	embedSkipGramHist = obs.Default().Histogram("tte_train_phase_seconds", obs.DefBuckets, "phase", "embed_skipgram")
	forwardPhaseHist  = obs.Default().Histogram("tte_train_phase_seconds", obs.DefBuckets, "phase", "forward")
	backwardPhaseHist = obs.Default().Histogram("tte_train_phase_seconds", obs.DefBuckets, "phase", "backward")
	evalPhaseHist     = obs.Default().Histogram("tte_train_phase_seconds", obs.DefBuckets, "phase", "eval")
	trainEpochGauge   = obs.Default().Gauge("tte_train_epoch")
	trainSamplesTotal = obs.Default().Counter("tte_train_samples_total")

	trafficCodeHits    = obs.Default().Counter("tte_core_traffic_code_total", "result", "hit")
	trafficCodeMisses  = obs.Default().Counter("tte_core_traffic_code_total", "result", "miss")
	trafficCodeEntries = obs.Default().Gauge("tte_core_traffic_code_entries")
)

func init() {
	r := obs.Default()
	r.Help("tte_train_phase_seconds", "Offline training phase durations: embed_pretrain (once; the line graph plus, per embedded graph, embed_walks and embed_skipgram), forward/backward (per optimizer step), eval (per validation pass).")
	r.Help("tte_train_epoch", "Current training epoch (last value wins across runs).")
	r.Help("tte_train_samples_total", "Cumulative training samples consumed by optimizer steps.")
	r.Help("tte_core_traffic_code_total", "External-branch lookups by the eval paths: hit (memoised Formula 18 output copied) or miss (traffic CNN and external MLP ran).")
	r.Help("tte_core_traffic_code_entries", "(Speed matrix, weather) entries in the traffic-code memo of the model that last changed it (last value wins across models).")
	r.Help(obs.SpanFamily, "Pipeline stage durations: decode, match, encode, estimate and mapmatch.* sub-stages.")
}
