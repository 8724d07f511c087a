package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the benchmark's fixed definition: each workload's reason,
// the serve rate ladder and latency limit, the key pools that make serving
// hot or churning, and the map from each per-layer metric to the workloads
// it belongs to and the end-to-end metric it should move.
//
//go:embed spec.json
var specJSON []byte

type serveSpec struct {
	Towers       int       `json:"towers"`
	TopMLP       []int     `json:"top_mlp"`
	MaxBatch     int       `json:"max_batch"`
	MaxWaitMs    float64   `json:"max_wait_ms"`
	CacheEntries int       `json:"cache_entries"`
	CacheShards  int       `json:"cache_shards"`
	LadderQPS    []float64 `json:"-"` // expanded from Ladder by loadSpec
	Ladder       struct {
		FromQPS float64 `json:"from_qps"`
		Step    float64 `json:"step"`
		Rungs   int     `json:"rungs"`
	} `json:"ladder"`
	P99LimitMs   float64 `json:"p99_limit_ms"`
	RungS        float64 `json:"rung_s"`
	WarmupS      float64 `json:"warmup_s"`
	Segments     int     `json:"segments"`
	CheckEvery   int     `json:"check_every"`
	ModelSeed    uint64  `json:"model_seed"`
	EmbIDSpace   int     `json:"cluster_emb_id_space"`
	AllocClients int     `json:"alloc_probe_clients"`
}

type workloadSpec struct {
	Why     string  `json:"why"`
	Pool    int     `json:"pool"`
	ZipfS   float64 `json:"zipf_s"`
	RefRate float64 `json:"reference_qps"`
}

type layerSpec struct {
	Workloads []string `json:"workloads"`
	Moves     []string `json:"moves"`
}

type benchSpec struct {
	Workloads map[string]workloadSpec `json:"workloads"`
	Serve     serveSpec               `json:"serve"`
	Layers    map[string]layerSpec    `json:"per_layer"`
}

// loadSpec parses the embedded definition and expands the ladder.
func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	for name, w := range s.Workloads {
		// workload.Generate replaces a skew <= 1 by its default.
		if w.Pool > 0 && w.ZipfS <= 1 {
			return nil, fmt.Errorf("spec.json: workload %s needs zipf_s > 1", name)
		}
	}
	l := s.Serve.Ladder
	if l.FromQPS <= 0 || l.Step <= 1 || l.Rungs < 2 {
		return nil, fmt.Errorf("spec.json: bad ladder %+v", l)
	}
	r := l.FromQPS
	for i := 0; i < l.Rungs; i++ {
		s.Serve.LadderQPS = append(s.Serve.LadderQPS, float64(int(r+0.5)))
		r *= l.Step
	}
	return &s, nil
}

// belongs reports whether per-layer metric name is measured on workload w.
func (s *benchSpec) belongs(name, w string) bool {
	for _, x := range s.Layers[name].Workloads {
		if x == w {
			return true
		}
	}
	return false
}
