package experiments

import (
	"encoding/json"
	"fmt"
	"math"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
)

// Every grid driver funnels its sweep cells through these preimage/codec
// pairs, so any installed cell cache (umbench -cache) transparently skips
// cells it has already simulated. A cell's preimage canonically encodes
// everything the cell reads — the machine (or fleet) config and the exact
// RunConfig including the app catalog, mix, derived seed and measurement
// windows — under a driver tag that names the payload schema. The sweep
// worker count (Options.Parallel) never enters a preimage: cached results
// must be bit-identical across -parallel values, like the sweeps that
// produce them.
//
// Driver tags double as payload-schema names. Cells that run the same
// computation with the same inputs share entries across figures (the e2e
// grid, Fig 15's ladder and §6.8 all store "run/result" cells), while cells
// that store a different projection of the same run ("run/p99") can never
// collide with them.

// runPre encodes one machine.Run cell. Cells with observability attached
// are uncacheable (nil preimage): their results carry run-scoped spans and
// series the payload codec deliberately refuses.
func runPre(driver string, cfg machine.Config, rc machine.RunConfig) []byte {
	if rc.Obs != nil || rc.Telemetry != nil {
		return nil
	}
	return sweepcache.NewKey(driver).Any("cfg", cfg).Any("rc", rc).Preimage()
}

// resultCodec carries full *machine.Result cells ("run/result").
var resultCodec = sweep.CellCodec[*machine.Result]{
	Encode: machine.EncodeResult,
	Decode: machine.DecodeResult,
}

// fleetCodec carries coupled-fleet cells ("fleet/result").
var fleetCodec = sweep.CellCodec[*fleet.Result]{
	Encode: fleet.EncodeResult,
	Decode: fleet.DecodeResult,
}

// fig9Codec carries the Figure 9 hit-rate rows ("fig9/rows").
var fig9Codec = sweep.CellCodec[[]Fig9Row]{
	Encode: encodeFig9Rows,
	Decode: decodeFig9Rows,
}

func encodeFig9Rows(rows []Fig9Row) ([]byte, error) {
	objs := make([][]byte, len(rows))
	for i, r := range rows {
		if math.IsNaN(r.HitRate) || math.IsInf(r.HitRate, 0) {
			return nil, fmt.Errorf("experiments: non-finite hit rate for %s/%s", r.Class, r.Structure)
		}
		var o stats.JSONObject
		o.Str("class", r.Class).Str("structure", r.Structure).Float("hit_rate", r.HitRate)
		objs[i] = o.Bytes()
	}
	var o stats.JSONObject
	o.RawArr("rows", objs)
	return o.Bytes(), nil
}

func decodeFig9Rows(b []byte) ([]Fig9Row, error) {
	var m struct {
		Rows []struct {
			Class     string  `json:"class"`
			Structure string  `json:"structure"`
			HitRate   float64 `json:"hit_rate"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("experiments: decoding cached fig9 rows: %w", err)
	}
	rows := make([]Fig9Row, len(m.Rows))
	for i, r := range m.Rows {
		rows[i] = Fig9Row{Class: r.Class, Structure: r.Structure, HitRate: r.HitRate}
	}
	return rows, nil
}
