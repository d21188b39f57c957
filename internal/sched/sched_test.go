package sched

import "testing"

func TestPolicyPresets(t *testing.T) {
	hw := HardwareSched()
	if !hw.HardwareRQ || hw.CSCycles != HardwareCSCycles {
		t.Fatalf("hardware policy = %+v", hw)
	}
	lx := LinuxSched()
	if lx.CSCycles != LinuxCSCycles || lx.HardwareRQ {
		t.Fatalf("linux policy = %+v", lx)
	}
	sj := ShinjukuSched()
	if !sj.Centralized || sj.CSCycles != SoftwareCSCycles {
		t.Fatalf("shinjuku policy = %+v", sj)
	}
	sh := ShenangoSched()
	if !sh.Centralized {
		t.Fatalf("shenango policy = %+v", sh)
	}
	zy := ZygOSSched()
	if !zy.WorkStealing || zy.StealCycles == 0 {
		t.Fatalf("zygos policy = %+v", zy)
	}
	// The paper's cost ordering: hardware << software schedulers << Linux.
	if !(hw.CSCycles < sj.CSCycles && sj.CSCycles < lx.CSCycles) {
		t.Fatal("context-switch cost ordering violated")
	}
}
