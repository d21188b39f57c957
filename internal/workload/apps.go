package workload

import (
	"fmt"
	"strconv"
	"strings"

	"umanycore/internal/dist"
)

// Service IDs of the SocialNetwork catalog, in the order the paper's figures
// list the applications.
const (
	SvcUrlShort = iota
	SvcUser
	SvcText
	SvcUsrMnt
	SvcPstStr
	SvcSGraph
	SvcHomeT
	SvcCPost
	NumSocialServices
)

// AppNames lists the figure columns in paper order.
var AppNames = []string{"Text", "SGraph", "User", "PstStr", "UsrMnt", "HomeT", "CPost", "UrlShort"}

func compute(meanMicros float64) Op {
	// Lognormal with moderate dispersion: service compute is fairly
	// repeatable within a service (§4.3: "requests for a given service tend
	// to have similar execution times").
	return Op{Kind: OpCompute, Time: dist.NewLognormal(meanMicros, 0.4)}
}

func storage(meanMicros float64) Op {
	return Op{Kind: OpStorage, Time: dist.Exponential{MeanV: meanMicros}}
}

func call(callees ...int) Op {
	return Op{Kind: OpCall, Callees: callees}
}

// SocialNetworkCatalog builds the 8-service catalog modeled on
// DeathStarBench's Social Network application. Each invocation performs ~3
// blocking RPCs (the paper's characterization); leaf services (UrlShort,
// PstStr) issue only storage accesses, while SGraph/HomeT/CPost fan out into
// other services. Mean invocation compute is ~130μs (the paper's measured
// DeathStarBench average is 120μs). Trees are wide and shallow — fan-out up
// to 6 with depth ≤4 — so a root request's total CPU is several× its
// critical path; combined with the baselines' software RPC tax this places
// the 40-core ServerClass in the §5 utilization bands (<30% / 30–60% / >60%
// at 5/10/15K RPS). See DESIGN.md for calibration notes.
func SocialNetworkCatalog() *Catalog {
	c := &Catalog{Services: []*Service{
		{
			ID: SvcUrlShort, Name: "UrlShort",
			Ops: []Op{
				compute(50), storage(30), compute(40), storage(25), compute(30),
			},
			SnapshotBytes:  8 << 20,
			FootprintBytes: 256 << 10,
		},
		{
			ID: SvcUser, Name: "User",
			Ops: []Op{
				compute(60), storage(40), compute(50), storage(30), compute(20),
			},
			SnapshotBytes:  12 << 20,
			FootprintBytes: 384 << 10,
		},
		{
			ID: SvcText, Name: "Text",
			Ops: []Op{
				compute(40), call(SvcUrlShort, SvcUsrMnt), compute(50), storage(30), compute(30),
			},
			SnapshotBytes:  10 << 20,
			FootprintBytes: 512 << 10,
		},
		{
			ID: SvcUsrMnt, Name: "UsrMnt",
			Ops: []Op{
				compute(40), call(SvcUser), compute(30), storage(35), compute(30),
			},
			SnapshotBytes:  8 << 20,
			FootprintBytes: 320 << 10,
		},
		{
			ID: SvcPstStr, Name: "PstStr",
			Ops: []Op{
				compute(50), storage(60), compute(40), storage(40), compute(30), storage(25), compute(20),
			},
			SnapshotBytes:  16 << 20,
			FootprintBytes: 640 << 10,
		},
		{
			ID: SvcSGraph, Name: "SGraph",
			Ops: []Op{
				compute(40), call(SvcUser, SvcUser), compute(40), storage(50), compute(30), storage(30), compute(20),
			},
			SnapshotBytes:  14 << 20,
			FootprintBytes: 512 << 10,
		},
		{
			ID: SvcHomeT, Name: "HomeT",
			// Reading a home timeline fans out widely: the social graph,
			// several post fetches, user/mention hydration — the dominant
			// and second-heaviest request type.
			Ops: []Op{
				compute(70),
				call(SvcSGraph,
					SvcPstStr, SvcPstStr, SvcPstStr, SvcPstStr,
					SvcPstStr, SvcPstStr, SvcPstStr, SvcPstStr,
					SvcUser, SvcUser, SvcUsrMnt),
				compute(50), storage(40), compute(30),
			},
			SnapshotBytes:  12 << 20,
			FootprintBytes: 576 << 10,
		},
		{
			ID: SvcCPost, Name: "CPost",
			Ops: []Op{
				compute(80), call(SvcText, SvcUsrMnt, SvcUrlShort, SvcPstStr, SvcHomeT, SvcSGraph),
				compute(70), storage(30), compute(50),
			},
			SnapshotBytes:  16 << 20,
			FootprintBytes: 704 << 10,
		},
	}}
	if err := c.Validate(); err != nil {
		panic("workload: invalid built-in catalog: " + err.Error())
	}
	return c
}

// MixEntry weights one request type within a mixed arrival stream.
type MixEntry struct {
	Root   int
	Weight float64
}

// SocialNetworkMix returns the default mixed workload: all eight request
// types arriving at one server, timeline reads dominating and compose-post
// the heavy write path. The §6 per-application figures measure each request
// type's latency within this mix (all types share the machine, so a
// saturated server inflates every type's tail — including the light ones).
func SocialNetworkMix() []MixEntry {
	return []MixEntry{
		{Root: SvcHomeT, Weight: 0.45},
		{Root: SvcCPost, Weight: 0.30},
		{Root: SvcSGraph, Weight: 0.05},
		{Root: SvcText, Weight: 0.05},
		{Root: SvcUsrMnt, Weight: 0.04},
		{Root: SvcPstStr, Weight: 0.04},
		{Root: SvcUser, Weight: 0.04},
		{Root: SvcUrlShort, Weight: 0.03},
	}
}

// SocialNetworkApps returns the 8 applications in paper figure order, all
// sharing one catalog.
func SocialNetworkApps() []*App {
	c := SocialNetworkCatalog()
	roots := map[string]int{
		"Text": SvcText, "SGraph": SvcSGraph, "User": SvcUser, "PstStr": SvcPstStr,
		"UsrMnt": SvcUsrMnt, "HomeT": SvcHomeT, "CPost": SvcCPost, "UrlShort": SvcUrlShort,
	}
	apps := make([]*App, 0, len(AppNames))
	for _, name := range AppNames {
		apps = append(apps, &App{Name: name, Root: roots[name], Catalog: c})
	}
	return apps
}

// MaxSyntheticBlockingCalls bounds a synthetic service's blocking calls.
// The paper uses 2–6; the bound only keeps a mistyped count from building
// an op list of that size before anything runs.
const MaxSyntheticBlockingCalls = 1024

// SyntheticApp builds the single-service benchmark of §6.7: total compute
// drawn from the named distribution ("exponential", "lognormal", "bimodal")
// with the given mean (microseconds), split across blockingCalls+1 segments
// separated by blocking storage accesses (the paper uses 2–6 blocking
// calls). A mean dist.CheckMean rejects, or a blocking-call count outside
// [0, MaxSyntheticBlockingCalls], is an error that names it.
func SyntheticApp(distName string, meanMicros float64, blockingCalls int) (*App, error) {
	if err := dist.CheckMean(meanMicros); err != nil {
		return nil, err
	}
	if blockingCalls < 0 || blockingCalls > MaxSyntheticBlockingCalls {
		return nil, fmt.Errorf("synthetic app: block count %d outside [0, %d]", blockingCalls, MaxSyntheticBlockingCalls)
	}
	segMean := meanMicros / float64(blockingCalls+1)
	seg, err := dist.ByName(distName, segMean)
	if err != nil {
		return nil, err
	}
	// Blocking operations scale with the service time so μs-scale
	// benchmarks block on μs-scale I/O (as in the Shinjuku methodology).
	storageMean := meanMicros / 8
	if storageMean < 3 {
		storageMean = 3
	}
	ops := []Op{{Kind: OpCompute, Time: seg}}
	for i := 0; i < blockingCalls; i++ {
		ops = append(ops, storage(storageMean), Op{Kind: OpCompute, Time: seg})
	}
	c := &Catalog{Services: []*Service{{
		ID: 0, Name: "synthetic-" + distName,
		Ops:            ops,
		SnapshotBytes:  8 << 20,
		FootprintBytes: 256 << 10,
	}}}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &App{Name: "synthetic-" + distName, Root: 0, Catalog: c}, nil
}

// ParseSyntheticApp builds the SyntheticApp a command-line spec
// "synthetic:<dist>:<mean_us>:<blocks>" names, e.g. "synthetic:bimodal:10:3".
// A malformed spec, an unknown distribution, a mean dist.CheckMean rejects
// or a block count SyntheticApp rejects is an error that names the bad
// part.
func ParseSyntheticApp(spec string) (*App, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 || parts[0] != "synthetic" {
		return nil, fmt.Errorf("synthetic app format: synthetic:<dist>:<mean_us>:<blocks>, got %q", spec)
	}
	mean, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("bad mean %q: %v", parts[2], err)
	}
	blocks, err := strconv.Atoi(parts[3])
	if err != nil {
		return nil, fmt.Errorf("bad block count %q: %v", parts[3], err)
	}
	return SyntheticApp(parts[1], mean, blocks)
}
