package timeprints_test

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles one of the repository's commands into a temp dir
// and returns the binary path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestTimeprintCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries")
	}
	bin := buildCmd(t, "timeprint")

	out := run(t, bin, "minb", "-m", "64")
	if !strings.Contains(out, "minimal b=13") {
		t.Errorf("minb output: %s", out)
	}

	out = run(t, bin, "rate", "-m", "1000", "-b", "24", "-clock", "5e6")
	if !strings.Contains(out, "34") || !strings.Contains(out, "170000") {
		t.Errorf("rate output: %s", out)
	}

	logFile := filepath.Join(t.TempDir(), "x.tpr")
	out = run(t, bin, "log", "-m", "16", "-b", "8", "-changes", "3,4,9,10", "-out", logFile)
	if !strings.Contains(out, "k=4") {
		t.Errorf("log output: %s", out)
	}
	// Extract the printed TP and reconstruct from it.
	var tp string
	for _, f := range strings.Fields(out) {
		if strings.HasPrefix(f, "TP=") {
			tp = strings.TrimPrefix(f, "TP=")
		}
	}
	if len(tp) != 8 {
		t.Fatalf("no TP in output: %s", out)
	}
	out = run(t, bin, "reconstruct", "-m", "16", "-b", "8", "-tp", tp, "-k", "4", "-prop", "paired", "-limit", "0")
	if !strings.Contains(out, "changes=[3 4 9 10]") {
		t.Errorf("reconstruct output: %s", out)
	}

	out = run(t, bin, "decode", "-in", logFile)
	if !strings.Contains(out, "m=16 b=8") {
		t.Errorf("decode output: %s", out)
	}

	// Wire-dump input.
	wire := filepath.Join(t.TempDir(), "wire.txt")
	if err := os.WriteFile(wire, []byte("0000000011110000"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, bin, "log", "-m", "16", "-b", "8", "-in", wire)
	if !strings.Contains(out, "k=2") {
		t.Errorf("wire log output: %s", out)
	}

	// VCD input.
	vcdFile := filepath.Join(t.TempDir(), "dump.vcd")
	doc := "$timescale 1 ns $end\n$scope module top $end\n$var wire 1 ! sig $end\n$upscope $end\n$enddefinitions $end\n#0\n0!\n#3\n1!\n#7\n0!\n#16\n"
	if err := os.WriteFile(vcdFile, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, bin, "log", "-m", "16", "-b", "8", "-vcd", vcdFile, "-signal", "sig")
	if !strings.Contains(out, "k=2") {
		t.Errorf("vcd log output: %s", out)
	}
}

func TestSocsimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries")
	}
	bin := buildCmd(t, "socsim")
	dir := t.TempDir()
	vcdOut := filepath.Join(dir, "soc.vcd")
	logOut := filepath.Join(dir, "soc.tpr")
	out := run(t, bin, "-m", "256", "-b", "20", "-cycles", "1024",
		"-vcd", vcdOut, "-log", logOut)
	if !strings.Contains(out, "trace-cycle   0") {
		t.Errorf("socsim output: %s", out)
	}
	for _, f := range []string{vcdOut, logOut} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("missing artifact %s", f)
		}
	}

	// The dumped log must decode with the timeprint tool.
	tpBin := buildCmd(t, "timeprint")
	out = run(t, tpBin, "decode", "-in", logOut)
	if !strings.Contains(out, "m=256 b=20") {
		t.Errorf("decode of socsim log: %s", out)
	}
}

// TestTimeprintdRejectsSatPar: the daemon solves every request on one
// worker, so a pinned cube-split portfolio would quietly run serial
// SAT, and "exhaustive" names no dispatcher route. Both must be refused
// at startup with a usage exit.
func TestTimeprintdRejectsSatPar(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries")
	}
	bin := buildCmd(t, "timeprintd")
	for _, oracle := range []string{"sat-par", "exhaustive"} {
		t.Run(oracle, func(t *testing.T) {
			// A daemon that accepted the flag would serve forever; the
			// deadline turns that into a failure instead of a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, "-oracle", oracle, "-addr", "127.0.0.1:0").CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), oracle) {
				t.Fatalf("timeprintd -oracle %s: %v\n%s", oracle, err, out)
			}
		})
	}
}

func TestTprbenchFig4CLI(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries")
	}
	bin := buildCmd(t, "tprbench")
	out := run(t, bin, "-exp", "fig4")
	for _, want := range []string{"256", "8 (paper: 8)", "1 (paper: 1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q:\n%s", want, out)
		}
	}
}
