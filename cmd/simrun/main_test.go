package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSingleReplicationHasNoCI builds the simrun binary and runs one
// replication, which has no confidence interval: every half-width must print
// as "(no CI)", never as a NaN.
func TestSingleReplicationHasNoCI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "simrun")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-config", filepath.Join("..", "..", "testdata", "enterprise.json"),
		"-reps", "1", "-horizon", "2000").CombinedOutput()
	if err != nil {
		t.Fatalf("simrun: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "NaN") {
		t.Errorf("output prints a NaN:\n%s", out)
	}
	if !strings.Contains(string(out), "(no CI)") {
		t.Errorf("output flags no missing interval:\n%s", out)
	}
}
