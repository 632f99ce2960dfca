package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Corpus screening rule: a generator variant joins the serve-mix corpus
// when, in each of screenRounds independent services, its cold solve
// improved the floorplan within screenColdIters simplex iterations and
// its delta (deltaEdit) re-solved within screenDeltaIters: an edit is
// meant to cost less than a fresh solve.
const (
	screenColdIters  = 15000
	screenDeltaIters = 5000
	screenRounds     = 2
	corpusPerShape   = 30
	screenMaxV       = 200
)

// screenMain implements `screen-corpus`: it re-derives the corpusVariants
// and warmupVariants tables from the rule above and prints them as Go.
// The tables are part of the benchmark's definition: re-deriving them
// changes serve-mix's inputs, which only a change to the benchmark
// itself may do.
func screenMain(args []string) int {
	fs := flag.NewFlagSet("screen-corpus", flag.ContinueOnError)
	work := fs.String("work", ".bench_build", "directory for the services' telemetry")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	fmt.Println("var corpusVariants = []struct {\n\tshape    string\n\tvariants []int64\n}{")
	var warm []int64
	for _, c := range corpusVariants {
		shape, want := c.shape, corpusPerShape
		if shape == "B1" {
			want += len(warmupVariants)
		}
		var pass []int64
		for v := int64(1); len(pass) < want && v <= screenMaxV; v++ {
			ok, err := screenVariant(ctx, shape, v, *work)
			if err != nil {
				fmt.Fprintf(os.Stderr, "screen-corpus: %v\n", err)
				return 1
			}
			if ok {
				pass = append(pass, v)
			}
		}
		if len(pass) < want {
			fmt.Fprintf(os.Stderr, "screen-corpus: only %d variants of %s pass\n", len(pass), shape)
			return 1
		}
		if shape == "B1" {
			pass, warm = pass[:corpusPerShape], pass[corpusPerShape:]
		}
		fmt.Printf("\t{%q, []int64{%s}},\n", shape, joinInts(pass))
	}
	fmt.Printf("}\n\nvar warmupVariants = []int64{%s}\n", joinInts(warm))
	return 0
}

// screenVariant applies the screening rule to one variant, each round
// on a fresh service so the cold solve is never a cache hit.
func screenVariant(ctx context.Context, shape string, v int64, work string) (bool, error) {
	spec, err := variantSpec(shape, v)
	if err != nil {
		return false, err
	}
	in, err := makeInstance(spec)
	if err != nil {
		return false, err
	}
	edited, err := deltaEdit(in)
	if err != nil {
		return false, nil // no context has room for the edit
	}
	for round := 0; round < screenRounds; round++ {
		svc, err := startService(work, false)
		if err != nil {
			return false, err
		}
		cold := &request{kind: kindCold, inst: in}
		delta := &request{kind: kindDelta, inst: edited, base: cold}
		runPlan(ctx, svc, nil, []*request{cold, delta})
		err = svc.stop()
		svc.remove()
		if err != nil {
			return false, err
		}
		if !ok(cold) || !ok(delta) || !cold.res.Improved ||
			cold.res.Stats.SimplexIters > screenColdIters || delta.res.Stats.SimplexIters > screenDeltaIters {
			return false, nil
		}
	}
	return true, nil
}

func joinInts(v []int64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ", ")
}
