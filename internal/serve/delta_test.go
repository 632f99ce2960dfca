package serve

import (
	"encoding/json"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
)

// FuzzComputeDiff: for every pair of documents arch.Document's codec
// decodes, a document differs from itself in nothing, and swapping the
// pair swaps what was added with what was removed while the modified
// ops and the fabric verdict stay as they are.
func FuzzComputeDiff(f *testing.F) {
	docs := [][]byte{
		[]byte(`{"fabric_w":2,"fabric_h":2,"num_contexts":2,"clock_period_ns":1.5,"ops":[{"kind":0,"ctx":0},{"kind":1,"ctx":1}],"edges":[[0,1],[0,1]]}`),
		[]byte(`{"fabric_w":2,"fabric_h":3,"num_contexts":1,"clock_period_ns":1.5,"ops":[{"kind":1,"ctx":0}],"edges":[[0,0],[1,0]]}`),
		[]byte(`{"fabric_w":2,"fabric_h":2,"num_contexts":2,"clock_period_ns":2.5,"ops":[{"kind":0,"ctx":0}],"edges":[[0,1]]}`),
		[]byte(`{"ops":null,"edges":null}`),
	}
	for _, name := range []string{"B1", "B4"} {
		spec, _ := bench.SpecByName(name)
		d, err := bench.Synthesize(spec)
		if err != nil {
			f.Fatal(err)
		}
		doc := arch.ToDocument(d, nil)
		b, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		// The delta a client sends: one op's kind flipped, an op and an
		// edge added, a context dropped.
		doc.Ops[0].Kind = 1 - doc.Ops[0].Kind
		doc.Ops = append(doc.Ops, arch.DocOp{Kind: 0, Ctx: 0})
		doc.Edges = append(doc.Edges[1:], [2]int{0, len(doc.Ops) - 1})
		doc.NumContexts--
		mutated, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, b, mutated)
	}
	for _, a := range docs {
		for _, b := range docs {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, da, db []byte) {
		var a, b arch.Document
		if a.UnmarshalJSON(da) != nil || b.UnmarshalJSON(db) != nil {
			return
		}
		if d := computeDiff(&a, &a); d != (DeltaDiff{}) {
			t.Fatalf("%q against itself: %+v, want no difference", da, d)
		}
		ab, ba := computeDiff(&a, &b), computeDiff(&b, &a)
		swapped := DeltaDiff{
			OpsAdded: ba.OpsRemoved, OpsRemoved: ba.OpsAdded, OpsModified: ba.OpsModified,
			EdgesAdded: ba.EdgesRemoved, EdgesRemoved: ba.EdgesAdded,
			ContextsAdded: ba.ContextsRemoved, ContextsRemoved: ba.ContextsAdded,
			FabricChanged: ba.FabricChanged,
		}
		if ab != swapped {
			t.Fatalf("%q -> %q: %+v, but swapped %+v", da, db, ab, ba)
		}
	})
}
