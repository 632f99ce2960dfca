package main

// Remote subcommands: agingfloor submit / agingfloor delta talk to a
// running agingfloord through the typed client (internal/serve/client)
// instead of re-running the solver locally.
//
//	agingfloor submit -bench B14
//	agingfloor submit -mode freeze design.json
//	agingfloor delta -base <job-id> design-v2.json
//
// Both wait for the job by default (-wait=false just prints the job ID)
// and report how the answer was produced — cold solve, exact or
// semantic cache hit, or a seeded delta re-solve — alongside the
// solver-effort statistics the warm path is supposed to shrink.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"agingfp/internal/arch"
	"agingfp/internal/serve"
	"agingfp/internal/serve/client"
)

// remoteFlags are the options submit and delta share.
type remoteFlags struct {
	server    string
	tenant    string
	mode      string
	seed      int64
	timeLimit int64
	deadline  int64
	wait      bool
	out       string
}

func addRemoteFlags(fs *flag.FlagSet, rf *remoteFlags) {
	fs.StringVar(&rf.server, "server", "http://localhost:8080", "agingfloord base URL")
	fs.StringVar(&rf.tenant, "tenant", "", "accounting identity to submit under (empty = anon)")
	fs.StringVar(&rf.mode, "mode", "", "re-mapping mode: freeze or rotate (empty = server default; delta inherits the base job's)")
	fs.Int64Var(&rf.seed, "seed", 0, "random seed (0 = server default; delta inherits the base job's)")
	fs.Int64Var(&rf.timeLimit, "time-limit-ms", 0, "wall-clock budget per ST_target probe in ms (0 = default)")
	fs.Int64Var(&rf.deadline, "deadline-ms", 0, "whole-job wall-clock bound in ms, queue wait included (0 = none)")
	fs.BoolVar(&rf.wait, "wait", true, "wait for the job and print the outcome (false: print the job ID and return)")
	fs.StringVar(&rf.out, "out", "", "write the full result document (JSON) to this file")
}

// loadDocument reads a design document (the schema agingfloor -save
// writes) and validates it by round-tripping through the arch layer.
func loadDocument(path string) (*arch.Document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc arch.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if _, _, err := arch.FromDocument(&doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &doc, nil
}

// runSubmit posts one job (built-in benchmark or a design file).
func runSubmit(args []string) int {
	fs := flag.NewFlagSet("agingfloor submit", flag.ExitOnError)
	var rf remoteFlags
	benchN := fs.String("bench", "", "submit a Table-I benchmark (B1..B27) instead of a design file")
	addRemoteFlags(fs, &rf)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: agingfloor submit [flags] design.json")
		fmt.Fprintln(os.Stderr, "       agingfloor submit [flags] -bench B14")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError

	req := &serve.JobRequest{
		Bench:       *benchN,
		Mode:        rf.mode,
		Seed:        rf.seed,
		TimeLimitMs: rf.timeLimit,
		DeadlineMs:  rf.deadline,
	}
	switch {
	case *benchN != "" && fs.NArg() > 0:
		fmt.Fprintln(os.Stderr, "choose one of -bench or a design file, not both")
		return 2
	case *benchN == "" && fs.NArg() != 1:
		fs.Usage()
		return 2
	case fs.NArg() == 1:
		doc, err := loadDocument(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		req.Design = doc
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := client.New(rf.server, nil)
	cl.Tenant = rf.tenant
	snap, err := cl.Submit(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "submit:", err)
		return 1
	}
	return finishRemote(ctx, cl, snap, rf)
}

// runDelta posts an incremental re-solve of a finished base job.
func runDelta(args []string) int {
	fs := flag.NewFlagSet("agingfloor delta", flag.ExitOnError)
	var rf remoteFlags
	baseID := fs.String("base", "", "finished base job ID to seed from (required)")
	addRemoteFlags(fs, &rf)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: agingfloor delta -base JOB [flags] design.json")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *baseID == "" || fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	doc, err := loadDocument(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := client.New(rf.server, nil)
	cl.Tenant = rf.tenant
	snap, err := cl.Delta(ctx, *baseID, &serve.DeltaRequest{
		Design:      doc,
		Mode:        rf.mode,
		Seed:        rf.seed,
		TimeLimitMs: rf.timeLimit,
		DeadlineMs:  rf.deadline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "delta:", err)
		return 1
	}
	return finishRemote(ctx, cl, snap, rf)
}

// finishRemote either prints the accepted job's ID (-wait=false) or
// waits for it and reports the outcome.
func finishRemote(ctx context.Context, cl *client.Client, snap serve.Snapshot, rf remoteFlags) int {
	fmt.Printf("job %s  state %s", snap.ID, snap.State)
	if snap.BaseJob != "" {
		fmt.Printf("  base %s", snap.BaseJob)
	}
	fmt.Println()
	if !rf.wait {
		return 0
	}
	final, err := cl.Wait(ctx, snap.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wait:", err)
		return 1
	}
	switch final.State {
	case serve.StateFailed:
		fmt.Fprintf(os.Stderr, "job %s failed: %s\n", final.ID, final.Error)
		return 1
	case serve.StateCanceled:
		fmt.Fprintf(os.Stderr, "job %s canceled\n", final.ID)
		return 1
	}

	// How the answer was produced is the headline for a caching/delta
	// API: cold, exact_hit, semantic_hit, or delta (seeded or fallen
	// back cold, with the reason).
	fmt.Printf("solve kind: %s", final.SolveKind)
	if final.DeltaFallback != "" {
		fmt.Printf("  (cold fallback: %s)", final.DeltaFallback)
	}
	if r := final.Reuse; r != nil {
		fmt.Printf("  [frozen reused %v, bases seeded %d, bracket hit %v]",
			r.FrozenReused, r.BasesSeeded, r.BracketHit)
	}
	fmt.Println()

	raw, res, err := cl.Result(ctx, final.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "result:", err)
		return 1
	}
	fmt.Printf("design %s: %d ops, %d contexts, status %s\n", res.Design, res.Ops, res.Contexts, res.Status)
	fmt.Printf("ST_target %.3f (lower bound %.3f), max stress %.3f -> %.3f, CPD %.3f -> %.3f ns\n",
		res.STTarget, res.STLower, res.OrigMaxStress, res.NewMaxStress, res.OrigCPDNs, res.NewCPDNs)
	fmt.Printf("MTTF %.2f years -> %.2f years (increase %.2fx)\n",
		res.MTTF.BeforeHours/8760, res.MTTF.AfterHours/8760, res.MTTF.Increase)
	fmt.Printf("solver effort: %d LP solves, %d simplex iterations, %d ST probes\n",
		res.Stats.LPSolves, res.Stats.SimplexIters, res.Stats.STProbes)
	// The cost block is delivery truth (what this job actually consumed,
	// wherever the answer came from), distinct from the result document's
	// request-deterministic stats.
	if c := final.Cost; c != nil {
		fmt.Printf("cost: tier %s, queue wait %.0f ms, solve %.0f ms", c.Tier, c.QueueWaitMs, c.SolveMs)
		if final.Tenant != "" {
			fmt.Printf("  (tenant %s)", final.Tenant)
		}
		fmt.Println()
		if len(c.PhaseMs) > 0 {
			fmt.Printf("kernel phases:")
			for _, name := range sortedPhaseNames(c.PhaseMs) {
				fmt.Printf(" %s %.1fms", name, c.PhaseMs[name])
			}
			fmt.Println()
		}
	}
	if rf.out != "" {
		if err := os.WriteFile(rf.out, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println("wrote result to", rf.out)
	}
	return 0
}

func sortedPhaseNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
