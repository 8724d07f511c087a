package distributed

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"dmt/internal/embeddings"
	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// timelineRecord is everything a schedule's modeled timeline exposes after
// a short run on the simulated A100 fabric: the network's mean virtual
// time, every phase and sim field, the wire volumes split by fabric, the
// embedding tier's counters, and an FNV-64a digest of rank 0's final
// over-arch parameter bits.
type timelineRecord struct {
	Now                                    time.Duration
	Phases                                 PhaseTimes
	Sim                                    SimTimes
	GradIntraHostBytes, GradCrossHostBytes int64
	EmbIntraHostBytes, EmbCrossHostBytes   int64
	Tier                                   embeddings.TierStats
	OverArchBits                           uint64
}

// goldenTimelines pins each schedule's modeled timeline exactly (values in
// ns and bytes), captured from the three separate step engines before they
// were merged into one. The schedules share one dataflow and differ only in
// where the bottom MLP runs and where gradient buckets are waited, so any
// change to the step engine that moves a single collective shows up here.
var goldenTimelines = map[string]timelineRecord{
	"sequential/fp32": {
		Now:                602321,
		Phases:             PhaseTimes{EmbComm: 364349, Dense: 1800, GradExchange: 0, Update: 236172, ExposedComm: 243314, HiddenComm: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206354, SPTTFwdHidden: 0, SPTTBwdExposed: 36957, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		GradIntraHostBytes: 3456,
		GradCrossHostBytes: 0,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  184320,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1689465},
		OverArchBits:       0xaa53f2a9d8c13adb,
	},
	"sequential/fp16": {
		Now:                602201,
		Phases:             PhaseTimes{EmbComm: 364253, Dense: 1800, GradExchange: 0, Update: 236148, ExposedComm: 243194, HiddenComm: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206309, SPTTFwdHidden: 0, SPTTBwdExposed: 36882, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		GradIntraHostBytes: 3456,
		GradCrossHostBytes: 0,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  110592,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1689465},
		OverArchBits:       0x9c761bb7d45f3dba,
	},
	"blocking/fp32": {
		Now:                756689,
		Phases:             PhaseTimes{EmbComm: 364349, Dense: 1800, GradExchange: 121095, Update: 269445, ExposedComm: 394682, HiddenComm: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206354, SPTTFwdHidden: 0, SPTTBwdExposed: 36957, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		GradIntraHostBytes: 14678880,
		GradCrossHostBytes: 88052544,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  184320,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1713465},
		OverArchBits:       0xaa53f2a9d8c13adb,
	},
	"blocking/fp16": {
		Now:                719882,
		Phases:             PhaseTimes{EmbComm: 364253, Dense: 1800, GradExchange: 91746, Update: 262083, ExposedComm: 357875, HiddenComm: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206309, SPTTFwdHidden: 0, SPTTBwdExposed: 36882, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		GradIntraHostBytes: 7341168,
		GradCrossHostBytes: 44026272,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  110592,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1713465},
		OverArchBits:       0x9c761bb7d45f3dba,
	},
	"overlapped/fp32": {
		Now:                653075,
		Phases:             PhaseTimes{EmbComm: 364349, Dense: 1800, GradExchange: 38205, Update: 248721, ExposedComm: 291068, HiddenComm: 84711, CrossStepExposed: 0, CrossStepHidden: 0},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206354, SPTTFwdHidden: 0, SPTTBwdExposed: 36957, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		GradIntraHostBytes: 14678880,
		GradCrossHostBytes: 88052544,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  184320,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1713465},
		OverArchBits:       0xaa53f2a9d8c13adb,
	},
	"overlapped/fp16": {
		Now:                621557,
		Phases:             PhaseTimes{EmbComm: 364253, Dense: 1800, GradExchange: 13086, Update: 242418, ExposedComm: 259550, HiddenComm: 53238, CrossStepExposed: 0, CrossStepHidden: 0},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206309, SPTTFwdHidden: 0, SPTTBwdExposed: 36882, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 0},
		GradIntraHostBytes: 7341168,
		GradCrossHostBytes: 44026272,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  110592,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1713465},
		OverArchBits:       0x9c761bb7d45f3dba,
	},
	"pipelined/fp32": {
		Now:                602321,
		Phases:             PhaseTimes{EmbComm: 364349, Dense: 1800, GradExchange: 0, Update: 236172, ExposedComm: 243314, HiddenComm: 438377, CrossStepExposed: 0, CrossStepHidden: 438377},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206354, SPTTFwdHidden: 0, SPTTBwdExposed: 36957, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 438377},
		GradIntraHostBytes: 14678880,
		GradCrossHostBytes: 88052544,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  184320,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1689465},
		OverArchBits:       0xaa53f2a9d8c13adb,
	},
	"pipelined/fp16": {
		Now:                602201,
		Phases:             PhaseTimes{EmbComm: 364253, Dense: 1800, GradExchange: 0, Update: 236148, ExposedComm: 243194, HiddenComm: 438302, CrossStepExposed: 0, CrossStepHidden: 438302},
		Sim:                SimTimes{DenseFwd: 750, DenseBwd: 1500, SPTTFwdExposed: 206309, SPTTFwdHidden: 0, SPTTBwdExposed: 36882, SPTTBwdHidden: 0, CrossStepExposed: 0, CrossStepHidden: 438302},
		GradIntraHostBytes: 7341168,
		GradCrossHostBytes: 44026272,
		EmbIntraHostBytes:  202752,
		EmbCrossHostBytes:  110592,
		Tier:               embeddings.TierStats{Lookups: 24, Updates: 24, CacheHits: 4096, CacheMisses: 2048, LookupCrossBytes: 9792, UpdateCrossBytes: 52800, LookupExposed: 1126560, UpdateExposed: 1689465},
		OverArchBits:       0x9c761bb7d45f3dba,
	},
}

func TestScheduleTimelineGolden(t *testing.T) {
	const steps = 3
	for _, sched := range []string{"sequential", "blocking", "overlapped", "pipelined"} {
		for _, s := range []quant.Scheme{quant.None, quant.FP16} {
			name := fmt.Sprintf("%s/%s", sched, s)
			t.Run(name, func(t *testing.T) {
				cfg, gen := latencySetup(1)
				setSchedule(&cfg, sched)
				cfg.Compression = Compression{Gradient: s, Embedding: s}
				cfg.Fabric = netsim.New(topology.A100)
				cfg.Model.TopMLP = []int{512, 256}
				cfg.EmbeddingTier = EmbeddingTier{Servers: 2, CacheRows: 64}
				tr, _ := runSteps(t, cfg, gen, steps)
				tr.Drain()
				defer tr.Close()

				st := tr.Stats()
				h := fnv.New64a()
				for _, p := range tr.Replica(0).OverArchParams() {
					for _, v := range p.Value.Data() {
						b := math.Float32bits(v)
						h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
					}
				}
				got := timelineRecord{
					Now:                tr.Network().Now(),
					Phases:             st.Phases,
					Sim:                st.Sim,
					GradIntraHostBytes: st.GradIntraHostBytes,
					GradCrossHostBytes: st.GradCrossHostBytes,
					EmbIntraHostBytes:  st.EmbIntraHostBytes,
					EmbCrossHostBytes:  st.EmbCrossHostBytes,
					Tier:               st.Tier,
					OverArchBits:       h.Sum64(),
				}
				if want, ok := goldenTimelines[name]; !ok || got != want {
					t.Fatalf("timeline diverged from the golden capture:\n got %#v\nwant %#v", got, want)
				}
			})
		}
	}
}
