package workload

// μSuite-style applications (Sriraman & Wenisch, IISWC'18), the second
// open-source suite the paper characterizes (§2.2 uses Router and SetAlgebra
// for Fig 1's microservice set; §3 characterizes the full suite). Each
// μSuite benchmark is a mid-tier service fanning out to a pool of leaf
// servers and merging their responses — a flatter, leaf-heavy shape than
// SocialNetwork's DAGs.

// Service IDs of the μSuite catalog.
const (
	MuLeafBucket    = iota // HDSearch leaf: distance computations over one shard
	MuLeafIntersect        // SetAlgebra leaf: posting-list intersection on one shard
	MuLeafScore            // Recommend leaf: collaborative-filtering scorer
	MuLeafLookup           // Router leaf: key-value shard lookup
	MuHDSearch             // mid tier: image feature match over all buckets
	MuSetAlgebra           // mid tier: set intersections across shards
	MuRecommend            // mid tier: user/item scoring
	MuRouter               // mid tier: replicated key-value routing
	NumMuServices
)

// MuSuiteAppNames lists the four benchmarks.
var MuSuiteAppNames = []string{"HDSearch", "Router", "SetAlgebra", "Recommend"}

// MuSuiteCatalog builds the μSuite catalog: four mid-tier services sharing
// four leaf services, with the fan-out widths and μs-scale leaf times the
// suite is known for.
func MuSuiteCatalog() *Catalog {
	c := &Catalog{Services: []*Service{
		{
			ID: MuLeafBucket, Name: "LeafBucket",
			Ops: []Op{
				compute(25), storage(15), compute(20),
			},
			SnapshotBytes: 8 << 20,
		},
		{
			ID: MuLeafIntersect, Name: "LeafIntersect",
			Ops: []Op{
				compute(30), storage(20), compute(25),
			},
			SnapshotBytes: 12 << 20,
		},
		{
			ID: MuLeafScore, Name: "LeafScore",
			Ops: []Op{
				compute(35), storage(10), compute(25),
			},
			SnapshotBytes: 10 << 20,
		},
		{
			ID: MuLeafLookup, Name: "LeafLookup",
			Ops: []Op{
				compute(10), storage(15), compute(10),
			},
			SnapshotBytes: 6 << 20,
		},
		{
			ID: MuHDSearch, Name: "HDSearch",
			// Image search: fan out to 8 bucket leaves, merge.
			Ops: []Op{
				compute(40),
				call(MuLeafBucket, MuLeafBucket, MuLeafBucket, MuLeafBucket,
					MuLeafBucket, MuLeafBucket, MuLeafBucket, MuLeafBucket),
				compute(50),
			},
			SnapshotBytes: 16 << 20,
		},
		{
			ID: MuSetAlgebra, Name: "SetAlgebra",
			// Posting-list intersection over 4 shards.
			Ops: []Op{
				compute(30),
				call(MuLeafIntersect, MuLeafIntersect, MuLeafIntersect, MuLeafIntersect),
				compute(40), storage(20), compute(20),
			},
			SnapshotBytes: 14 << 20,
		},
		{
			ID: MuRecommend, Name: "Recommend",
			// Score on 4 leaves, then persist the recommendation.
			Ops: []Op{
				compute(30),
				call(MuLeafScore, MuLeafScore, MuLeafScore, MuLeafScore),
				compute(40), storage(25), compute(15),
			},
			SnapshotBytes: 12 << 20,
		},
		{
			ID: MuRouter, Name: "Router",
			// Replicated get/set: consult 3 replicas.
			Ops: []Op{
				compute(15),
				call(MuLeafLookup, MuLeafLookup, MuLeafLookup),
				compute(20),
			},
			SnapshotBytes: 8 << 20,
		},
	}}
	if err := c.Validate(); err != nil {
		panic("workload: invalid μSuite catalog: " + err.Error())
	}
	return c
}

// MuSuiteApps returns the four μSuite benchmarks sharing one catalog.
func MuSuiteApps() []*App {
	c := MuSuiteCatalog()
	roots := map[string]int{
		"HDSearch": MuHDSearch, "Router": MuRouter,
		"SetAlgebra": MuSetAlgebra, "Recommend": MuRecommend,
	}
	apps := make([]*App, 0, len(MuSuiteAppNames))
	for _, name := range MuSuiteAppNames {
		apps = append(apps, &App{Name: name, Root: roots[name], Catalog: c})
	}
	return apps
}

// MuSuiteMix returns a balanced arrival mixture over the four benchmarks.
func MuSuiteMix() []MixEntry {
	return []MixEntry{
		{Root: MuHDSearch, Weight: 0.25},
		{Root: MuRouter, Weight: 0.35},
		{Root: MuSetAlgebra, Weight: 0.20},
		{Root: MuRecommend, Weight: 0.20},
	}
}
