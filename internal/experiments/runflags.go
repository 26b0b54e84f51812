package experiments

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vbundle/internal/audit"
	"vbundle/internal/core"
	"vbundle/internal/obs"
	"vbundle/internal/profiling"
)

// Flags are the run flags every experiment binary under cmd/ shares: -seed
// and -shards, the recorder flags of obs.Flags, the auditor flags of
// audit.Flags and the profile flags of profiling.Config. A binary registers
// them with AddFlags, calls Start after parsing, hands every run's Observed
// to Finish, and leaves through Exit or Fatal, which write the profiles
// before the process exits: a failed run is the one whose profile is
// wanted.
type Flags struct {
	seed   int64
	shards int
	prof   profiling.Config
	trace  obs.Flags
	audit  audit.Flags
	stop   func()
}

// AddFlags registers the run flags on fs.
func (f *Flags) AddFlags(fs *flag.FlagSet) {
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.IntVar(&f.shards, "shards", 0, "engine shards per run (0 = serial reference engine)")
	f.prof.AddFlags(fs)
	f.trace.AddFlags(fs)
	f.audit.AddFlags(fs)
}

// Start begins the requested profiles and returns the run configuration
// the flags select. Defer Stop right after it.
func (f *Flags) Start() Run {
	stop, err := f.prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	f.stop = stop
	return Run{Seed: f.seed, Shards: f.shards, Obs: f.trace.Config(), Audit: f.audit.Config()}
}

// Finish writes the trace and counter files from the last run that
// recorded, writes every auditor's report to stderr in order, and reports
// whether any invariant was violated.
func (f *Flags) Finish(observed ...Observed) (violated bool) {
	var last *obs.Trace
	for _, o := range observed {
		if o.Trace != nil {
			last = o.Trace
		}
	}
	if err := f.trace.Write(last); err != nil {
		f.Fatal(err)
	}
	for _, o := range observed {
		o.Audit.Report(os.Stderr)
		if o.Audit.Violations() > 0 {
			violated = true
		}
	}
	return violated
}

// Stop writes the profiles Start began; later calls do nothing.
func (f *Flags) Stop() {
	if f.stop != nil {
		f.stop()
		f.stop = nil
	}
}

// Exit writes the profiles and exits with code.
func (f *Flags) Exit(code int) {
	f.Stop()
	os.Exit(code)
}

// Fatal logs err, writes the profiles and exits with status 1.
func (f *Flags) Fatal(err error) {
	log.Print(err)
	f.Exit(1)
}

// ParseEngine maps a -engine flag value (dht, greedy or random) to the
// placement engine it names.
func ParseEngine(name string) (core.EngineKind, error) {
	switch name {
	case "dht":
		return core.EngineDHT, nil
	case "greedy":
		return core.EngineGreedy, nil
	case "random":
		return core.EngineRandom, nil
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}
