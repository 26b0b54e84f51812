// CLI behaviour fingerprint: every run binary under cmd/ is built and run at
// a small, sub-second configuration, and what it prints is compared byte for
// byte with goldens under testdata/cli (the -json files, up to a few hundred
// KB each, by SHA-256 digest), and so is each binary's flag set. A refactor of the run plumbing
// (flags, tracing, audit, profiling) must leave stdout, the -json file, the
// exit code and the flag set unchanged; these tests are that gate.
//
// Regenerate the goldens, only for a declared behaviour change, with
//
//	go test -run TestCLIFingerprint -update .
package vbundle

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the CLI goldens under testdata/cli")

// runBinaries are the cmd/ binaries that run one seeded experiment.
var runBinaries = []string{
	"vb-churn", "vb-faults", "vb-overhead", "vb-placement",
	"vb-qos", "vb-rebalance", "vb-serve", "vb-sim",
}

// cliCase is one fingerprinted invocation. Every case but the failing one is
// run a second time with -audit -shards 2, which must print the same stdout
// and report a clean audit on stderr.
type cliCase struct {
	name string // golden stem under testdata/cli
	bin  string
	args []string
	json bool // the binary writes a -json file, compared too
	exit int
	// shards overrides the shard count of the audited second run.
	shards string
}

var cliCases = []cliCase{
	{name: "rebalance-fig9", bin: "vb-rebalance", args: []string{"-fig", "9", "-servers", "120", "-duration", "30"}},
	{name: "rebalance-fig11", bin: "vb-rebalance", args: []string{"-fig", "11", "-servers", "60", "-duration", "30"}},
	{name: "rebalance-badfig", bin: "vb-rebalance", args: []string{"-fig", "12"}, exit: 1},
	// Table I (the default -fig 0 includes it) reports wall-clock times, so
	// the fingerprint covers Fig 14 and Fig 15 separately.
	{name: "overhead-fig14", bin: "vb-overhead", args: []string{"-fig", "14", "-max-servers", "256"}},
	{name: "overhead-fig15", bin: "vb-overhead", args: []string{"-fig", "15", "-max-servers", "512"}},
	{name: "serve", bin: "vb-serve", args: []string{"-servers", "128", "-duration", "10s", "-cache", "-batch"}, json: true},
	{name: "faults", bin: "vb-faults", args: []string{"-servers", "64", "-duration", "30", "-lease", "4", "-drop-rates", "0,0.02"}},
	{name: "faults-crash", bin: "vb-faults", args: []string{"-servers", "64", "-crash", "-drop-rates", "0,0.05"}},
	{name: "placement", bin: "vb-placement", args: []string{"-servers", "120", "-vms", "40", "-waves", "2"}, json: true},
	{name: "churn", bin: "vb-churn", args: []string{"-servers", "60", "-hours", "0.5", "-trials", "2"}, json: true},
	{name: "qos", bin: "vb-qos", json: true},
	// vb-sim's stdout diverges from the serial engine's at -shards 2 (its
	// t >= 26m rows report fewer migrations), a known engine-equivalence
	// defect recorded in CHANGES.md; -shards 1 still drives the windowed
	// engine and matches.
	{name: "sim", bin: "vb-sim", args: []string{"-servers", "60", "-hours", "0.5"}, shards: "1"},
}

// buildCLIs builds the named cmd/ binaries into a fresh directory.
func buildCLIs(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// runCLI runs one binary and returns its stdout, stderr and exit code.
func runCLI(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("%s: %v", bin, err)
	}
	return o.Bytes(), e.Bytes(), code
}

// golden compares got with testdata/cli/<file>, rewriting it under -update.
func golden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "cli", file)
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden\n--- got\n%s\n--- want\n%s", file, got, want)
	}
}

func TestCLIFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every cmd/ binary")
	}
	bins := buildCLIs(t, runBinaries...)
	for _, c := range cliCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bin := filepath.Join(bins, c.bin)
			args := c.args
			jsonPath := filepath.Join(t.TempDir(), "out.json")
			if c.json {
				args = append(append([]string(nil), args...), "-json", jsonPath)
			}
			stdout, stderr, code := runCLI(t, bin, args...)
			if code != c.exit {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, c.exit, stderr)
			}
			golden(t, c.name+".stdout", stdout)
			if c.json {
				js, err := os.ReadFile(jsonPath)
				if err != nil {
					t.Fatal(err)
				}
				golden(t, c.name+".json.sha256", []byte(fmt.Sprintf("%x\n", sha256.Sum256(js))))
			}
			if c.exit != 0 {
				return
			}
			// Audit and sharding observe or parallelise the run; neither may
			// change one byte of what it prints.
			shards := c.shards
			if shards == "" {
				shards = "2"
			}
			audited, stderr, code := runCLI(t, bin, append(append([]string(nil), c.args...), "-audit", "-shards", shards)...)
			if code != 0 {
				t.Fatalf("-audit -shards %s: exit %d\nstderr:\n%s", shards, code, stderr)
			}
			if !bytes.Equal(audited, stdout) {
				t.Errorf("-audit -shards %s changed stdout\n--- audited\n%s\n--- plain\n%s", shards, audited, stdout)
			}
			if !bytes.Contains(stderr, []byte("violations=0")) {
				t.Errorf("-audit -shards %s: no clean audit report on stderr:\n%s", shards, stderr)
			}
		})
	}
	// Flag names, types and defaults; the help text may be reworded.
	for _, name := range runBinaries {
		_, help, code := runCLI(t, filepath.Join(bins, name), "-h")
		if code != 0 {
			t.Fatalf("%s -h: exit %d", name, code)
		}
		golden(t, name+".flags", flagSet(help))
	}
}

// flagLine matches a flag's header line in -h output: "  -name type",
// followed on the same line by the usage for one-letter flags.
var flagLine = regexp.MustCompile(`^  -([^\s]+)(?: ([^\s]+))?(?:\t.*)?$`)

// flagDefault matches the default flag.PrintDefaults appends to the usage.
var flagDefault = regexp.MustCompile(`\(default (.*)\)$`)

// flagSet reduces -h output to one "-name type default=..." line per flag,
// dropping the help text, which may be reworded freely.
func flagSet(help []byte) []byte {
	var out bytes.Buffer
	var cur, def string
	flush := func() {
		if cur != "" {
			out.WriteString(strings.TrimSpace(cur+" "+def) + "\n")
		}
		cur, def = "", ""
	}
	for _, line := range strings.Split(string(help), "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			flush()
			cur = strings.TrimSpace("-" + m[1] + " " + m[2])
		}
		if m := flagDefault.FindStringSubmatch(line); m != nil && cur != "" {
			def = "default=" + m[1]
		}
	}
	flush()
	return out.Bytes()
}

// TestCLIProfilesSurviveFailure runs a binary into a failure after its
// profiles have started: the exit path must still write a complete CPU
// profile and the heap profile, since a failed run is the one whose profile
// is wanted.
func TestCLIProfilesSurviveFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a cmd/ binary")
	}
	bins := buildCLIs(t, "vb-rebalance")
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	_, stderr, code := runCLI(t, filepath.Join(bins, "vb-rebalance"),
		"-fig", "12", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr)
	}
	b, err := os.ReadFile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("CPU profile is %d bytes without the gzip magic: not a finished pprof", len(b))
	}
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Errorf("heap profile missing or empty (err %v)", err)
	}
}
