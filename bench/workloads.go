package main

// The constants of the benchmark. BENCHMARK.json may hold only the keys the
// harness contract names, so the rates, flags, mixes and phase shares that
// the issue wanted frozen beside it live here instead; this directory is
// frozen with it.

// Shares of --seconds given to each measured phase.
const (
	openShare   = 0.40 // open loop on the workload's own mix
	sideShare   = 0.25 // open loop on each operation class the mix lacks, one after another
	closedShare = 0.35 // closed loop, nproc clients back to back
	leadIn      = 0.5  // seconds at the head of the open phase sent but not recorded
	sideLeadIn  = 0.25 // the same for each short side phase
	window      = 0.5  // seconds per window of the closed phase, whose first window is its lead-in

	warmOps         = 300 // fixed warm-up operations, part of setup_s
	victimCount     = 300 // sequences ingested in warm-up for DELETE to consume
	checkpointEvery = 200 // ingest-mixed: checkpoint after this many write requests
	bootRepeats     = 3   // copy + boot + warm-up repetitions (setup_s uses their median)
	drills          = 3   // kill -9 drills (recovery_s is their median)
	drillWrites     = 300 // acknowledged writes between a drill's checkpoint and its kill
	sloFactor       = 5.0 // a request misses its limit beyond this × the seed-commit p50
)

// workload is one named traffic mix with its server flags and frozen rates.
type workload struct {
	name string // why each was chosen: BENCHMARK.json and README.md
	// Paged workloads size the residency budget and segment cache as a
	// share of the corpus's fully-resident payload bytes (the only server
	// flags beyond -addr, -data-dir and -checkpoint-interval 0).
	memoryBudgetShare float64
	segmentCacheShare float64
	// mix draws the next operation of the workload's own traffic.
	mix func(g *opGen) *op
	// mainClasses are the classes the mix contains; the side phase probes
	// the remaining ones so that every end-to-end figure exists on every
	// workload (the harness contract requires it; README marks which
	// figures are a workload's own and which are side probes).
	mainClasses []class
	// rate is the open-loop arrival rate of the main phase in requests per
	// second, chosen once on the seed commit at about a third of sat_rps.
	rate float64
	// checkpoints schedules POST /v1/snapshot/save by write count.
	checkpoints bool
	// p50 of each latency figure on the seed commit, in ms; the latency
	// limit of client.slo_miss_share is sloFactor times it.
	seedP50 map[class]float64
}

var workloads = []*workload{
	{
		name:        "similarity-cold",
		mix:         (*opGen).similarity,
		mainClasses: []class{clsQuery},
		rate:        1000,
		seedP50:     map[class]float64{clsQuery: 1.2, clsStream: 2.7, clsIngest: 1.8, clsFeature: 1.4},
	},
	{
		name:        "hot-repeat",
		mix:         (*opGen).hotRepeat,
		mainClasses: []class{clsQuery},
		rate:        2000,
		seedP50:     map[class]float64{clsQuery: 1.0, clsStream: 2.6, clsIngest: 1.8, clsFeature: 1.4},
	},
	{
		name:        "ingest-mixed",
		mix:         (*opGen).mixed,
		mainClasses: []class{clsIngest, clsFeature},
		rate:        110,
		checkpoints: true,
		seedP50:     map[class]float64{clsQuery: 1.5, clsStream: 2.7, clsIngest: 1.9, clsFeature: 11},
	},
	{
		name:              "paged-progressive",
		memoryBudgetShare: 0.10,
		segmentCacheShare: 0.05,
		mix: func(g *opGen) *op {
			if g.mixSlot++; g.mixSlot%2 == 0 { // strictly alternating, see the mix cycles in ops.go
				return g.exact()
			}
			return g.progressive()
		},
		mainClasses: []class{clsQuery, clsStream},
		rate:        300,
		seedP50:     map[class]float64{clsQuery: 1.6, clsStream: 2.8, clsIngest: 1.8, clsFeature: 1.4},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sideProbe is how one class is probed on a workload whose own mix lacks
// it: its generator and its arrival rate, low enough that a request
// rarely waits for a sender.
type sideProbe struct {
	class class
	draw  func(g *opGen) *op
	rate  float64
}

var sideProbes = []sideProbe{
	{clsQuery, (*opGen).similarity, 200},
	{clsStream, (*opGen).progressive, 100},
	{clsIngest, (*opGen).ingest, 200},
	{clsFeature, (*opGen).featureLight, 60},
}

// hasClass reports whether the workload's own mix carries the class.
func (w *workload) hasClass(c class) bool {
	for _, mc := range w.mainClasses {
		if mc == c {
			return true
		}
	}
	return false
}

// side lists the probes of the classes the workload's own mix lacks.
func (w *workload) side() []sideProbe {
	var out []sideProbe
	for _, p := range sideProbes {
		if !w.hasClass(p.class) {
			out = append(out, p)
		}
	}
	return out
}
