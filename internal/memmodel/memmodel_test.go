package memmodel

import (
	"testing"

	"umanycore/internal/uarch"
)

func TestCoreModels(t *testing.T) {
	sc := ServerClassCore()
	small := SmallCore()
	if sc.IssueWidth <= small.IssueWidth || sc.FreqGHz <= small.FreqGHz {
		t.Fatal("ServerClass should be wider and faster")
	}
	if sc.baseCPI() >= small.baseCPI() {
		t.Fatal("wider issue should lower base CPI")
	}
	if small.L3KB != 0 {
		t.Fatal("small core has no L3 (Table 2)")
	}
}

func TestEvaluateProducesSaneNumbers(t *testing.T) {
	for _, class := range []uarch.TraceClass{uarch.Monolithic, uarch.Microservice} {
		for _, core := range []CoreModel{ServerClassCore(), SmallCore()} {
			th := Evaluate(core, class, 60000, 1)
			if th.CPI <= 0 || th.GIPS <= 0 {
				t.Fatalf("%s/%s: CPI=%v GIPS=%v", core.Name, class, th.CPI, th.GIPS)
			}
			if th.AMATData < 2 || th.AMATInstr < 2 {
				t.Fatalf("%s/%s: AMAT below L1 round trip", core.Name, class)
			}
			if th.Mispredict < 0 || th.Mispredict > 1 {
				t.Fatalf("mispredict = %v", th.Mispredict)
			}
		}
	}
}

// The justification for the ServerClass perf factor (serverClassPerf =
// 1.65 in the machine model): the measured big/small throughput ratio on
// microservice code lands in the range around it, and the monolithic ratio
// is clearly larger (Fig 1's argument quantified). internal/machine's
// TestCalibration holds the constant to a narrower band around this
// measurement.
func TestPerfFactorCalibration(t *testing.T) {
	micro := PerfFactor(uarch.Microservice, 150000, 42)
	mono := PerfFactor(uarch.Monolithic, 150000, 42)
	if micro < 1.4 || micro > 2.0 {
		t.Errorf("microservice perf factor = %v, machine uses 1.65", micro)
	}
	if mono <= micro {
		t.Errorf("monolithic ratio (%v) should exceed microservice ratio (%v)", mono, micro)
	}
}

func TestMicroserviceMemoryTimeIsSmall(t *testing.T) {
	// §3.5: handler working sets fit the L1; the memory hierarchy adds
	// little to microservice CPI on either core.
	th := Evaluate(SmallCore(), uarch.Microservice, 100000, 7)
	if th.AMATData > 6 {
		t.Errorf("micro data AMAT = %v cycles, want near the 2-cycle L1", th.AMATData)
	}
	if th.AMATInstr > 4 {
		t.Errorf("micro instr AMAT = %v cycles", th.AMATInstr)
	}
	// Monolithic code pays far more memory time.
	mono := Evaluate(SmallCore(), uarch.Monolithic, 100000, 7)
	if mono.AMATData <= th.AMATData {
		t.Error("monolithic AMAT should exceed microservice AMAT")
	}
}

func TestZeroGIPSGuard(t *testing.T) {
	if PerfFactor(uarch.Microservice, 10, 1) <= 0 {
		t.Fatal("tiny trace should still produce a ratio")
	}
}
