package crashpoint

import (
	"errors"
	"testing"
)

func TestDisarmedHitIsNoop(t *testing.T) {
	Disarm()
	Hit("anything") // must not die
	if Enabled() {
		t.Fatal("enabled after Disarm")
	}
}

func TestCountdownFiresOnNthHit(t *testing.T) {
	defer Disarm()
	if err := Arm("p.one:3,p.two"); err != nil {
		t.Fatal(err)
	}
	var fired []string
	SetHook(func(name string) error { fired = append(fired, name); return nil })
	Hit("p.one")
	Hit("p.one")
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	Hit("p.two")
	Hit("p.one")
	Hit("p.one") // already fired and removed: no-op
	if len(fired) != 2 || fired[0] != "p.two" || fired[1] != "p.one" {
		t.Fatalf("fired = %v", fired)
	}
	Hit("p.unknown") // never armed: no-op
}

func TestArmRejectsBadCounts(t *testing.T) {
	defer Disarm()
	if err := Arm("p:x"); err == nil {
		t.Fatal("bad count accepted")
	}
	if err := Arm("p:0"); err == nil {
		t.Fatal("zero count accepted")
	}
	if err := Arm(""); err != nil || Enabled() {
		t.Fatal("empty spec must disarm")
	}
}

func TestPointsListedAndNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Points() {
		if p == "" || seen[p] {
			t.Fatalf("bad or duplicate point %q", p)
		}
		seen[p] = true
	}
	if !seen[ArchiveAppendTorn] || !seen[CheckpointCloseBeforeRename] {
		t.Fatal("expected points missing from Points()")
	}
}

func TestHitReturnsHookError(t *testing.T) {
	defer Disarm()
	if err := Arm("p.fail"); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected")
	SetHook(func(string) error { return injected })
	if err := Hit("p.other"); err != nil {
		t.Fatalf("unarmed point returned %v", err)
	}
	if err := Hit("p.fail"); err != injected {
		t.Fatalf("armed point returned %v, want the hook's error", err)
	}
	if err := Hit("p.fail"); err != nil {
		t.Fatalf("fired point returned %v on its next hit", err)
	}
}
