package sched

import "testing"

func TestPolicyPresets(t *testing.T) {
	hw := HardwareSched()
	if !hw.HardwareRQ || hw.CSCycles != HardwareCSCycles {
		t.Fatalf("hardware policy = %+v", hw)
	}
	sj := ShinjukuSched()
	if !sj.Centralized || sj.CSCycles != SoftwareCSCycles {
		t.Fatalf("shinjuku policy = %+v", sj)
	}
	zy := ZygOSSched()
	if !zy.WorkStealing || zy.StealCycles == 0 {
		t.Fatalf("zygos policy = %+v", zy)
	}
	// The paper's cost ordering: hardware << software schedulers.
	if hw.CSCycles >= sj.CSCycles {
		t.Fatal("context-switch cost ordering violated")
	}
}
