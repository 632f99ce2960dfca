package arch_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/place"
)

// plainDoc is arch.Document as encoding/json sees it without the codec.
type plainDoc arch.Document

// wireDocuments returns every Table-I design and every generator
// variant the serve-mix corpus draws from (B1, B4, B10, B13 and B19,
// variants 1-57, seed + 1000·v), each with its placed baseline. The
// 16×16 Table-I fabrics take seconds to place, so they go without one.
func wireDocuments(tb testing.TB) []*arch.Document {
	tb.Helper()
	docs, err := wireDocs()
	if err != nil {
		tb.Fatal(err)
	}
	return docs
}

var wireDocs = sync.OnceValues(func() ([]*arch.Document, error) {
	specs := append([]bench.Spec(nil), bench.TableI...)
	for _, shape := range []string{"B1", "B4", "B10", "B13", "B19"} {
		for v := int64(1); v <= 57; v++ {
			spec, _ := bench.SpecByName(shape)
			spec.Seed += 1000 * v
			spec.Name = fmt.Sprintf("%s-v%d", shape, v)
			specs = append(specs, spec)
		}
	}
	var docs []*arch.Document
	for _, spec := range specs {
		d, err := bench.Synthesize(spec)
		if err != nil {
			return nil, err
		}
		var maps map[string]arch.Mapping
		if spec.Fabric.W <= 8 {
			if m0, err := place.Place(d, place.DefaultConfig()); err == nil {
				maps = map[string]arch.Mapping{"baseline": m0}
			}
		}
		docs = append(docs, arch.ToDocument(d, maps))
	}
	return docs, nil
})

// wireEdgeCases are inputs off the plain path, each of which the codec
// must hand to encoding/json.
var wireEdgeCases = []string{
	`{"name":"a\"b","fabric_w":4,"fabric_h":4,"num_contexts":1,"ops":[{"kind":0,"name":"A","ctx":0}]}`,
	`{"Name":"x","FABRIC_W":4,"fabric_h":4,"num_contexts":1,"ops":[{"Kind":1,"CTX":0}]}`,
	`{"name":"x","name":"y","ops":[{"kind":0,"kind":1,"ctx":0}]}`,
	`{"ops":[{"kind":0,"ctx":0}],"ops":[]}`,
	`{"mappings":{"a":[[0,0]]},"mappings":{"b":[[1,1]]}}`,
	`{"mappings":{"a":[[0,0]],"a":[[1,1]],"c":null}}`,
	`null`,
	`{"name":null,"ops":null,"edges":null,"mappings":null}`,
	`{"ops":[null],"edges":[null,[1,2]]}`,
	`{"fabric_w":1.0}`,
	`{"fabric_w":1e2,"fabric_h":-0}`,
	`{"fabric_w":9223372036854775808}`,
	`{"fabric_w":-9223372036854775808}`,
	`{"fabric_w":99999999999999999999}`,
	`{"clock_period_ns":1e999}`,
	`{"clock_period_ns":-0,"unit_wire_delay_ns":1E-7}`,
	`{"name":"x"} trailing`,
	`{"name":"x"}{}`,
	` {"name":"x"} ` + "\n\t",
	`{"name":"\xff"}`,
	`{"name":"<&> "}`,
	`{"fabric_w":01}`,
	`{"fabric_w":-}`,
	`{"edges":[[1],[1,2,3],[]]}`,
	`{"unknown":5}`,
	`{"fabric_w":"4"}`,
	`{"fabric_w":true}`,
	`{"ops":{}}`,
	`{}`,
	`[]`,
	`"doc"`,
	`5`,
	``,
	`{`,
	`{"name":"x",}`,
	`{"ops":[],"edges":[],"mappings":{}}`,
}

// FuzzDocumentJSON: the codec and encoding/json accept and reject the
// same inputs and decode them to equal values, whether the codec is
// called directly or through json.Unmarshal; MarshalJSON writes
// encoding/json's bytes for every document that decodes.
func FuzzDocumentJSON(f *testing.F) {
	for _, doc := range wireDocuments(f) {
		b, err := json.Marshal((*plainDoc)(doc))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range wireEdgeCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want plainDoc
		wantErr := json.Unmarshal(data, &want)
		var direct, nested arch.Document
		directErr := direct.UnmarshalJSON(data)
		nestedErr := json.Unmarshal(data, &nested)
		if (wantErr == nil) != (directErr == nil) || (wantErr == nil) != (nestedErr == nil) {
			t.Fatalf("%q: encoding/json error %v, codec %v, codec via json.Unmarshal %v", data, wantErr, directErr, nestedErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(arch.Document(want), direct) || !reflect.DeepEqual(direct, nested) {
			t.Fatalf("%q: encoding/json decoded %+v, codec %+v, via json.Unmarshal %+v", data, want, direct, nested)
		}
		wantB, wantErr := json.Marshal(&want)
		gotB, gotErr := direct.MarshalJSON()
		if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(wantB, gotB) {
			t.Fatalf("%q: encoding/json wrote %s (%v), MarshalJSON %s (%v)", data, wantB, wantErr, gotB, gotErr)
		}
	})
}

// TestDocumentBytesUnchanged: every Table-I and corpus document, and the
// indented file WriteJSON saves, encode to encoding/json's bytes.
func TestDocumentBytesUnchanged(t *testing.T) {
	for _, doc := range wireDocuments(t) {
		want, err := json.Marshal((*plainDoc)(doc))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: codec wrote\n%s\nencoding/json\n%s", doc.Name, got, want)
		}
		var wantFile, gotFile bytes.Buffer
		enc := json.NewEncoder(&wantFile)
		enc.SetIndent("", "  ")
		if err := enc.Encode((*plainDoc)(doc)); err != nil {
			t.Fatal(err)
		}
		d, maps, err := arch.FromDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := arch.WriteJSON(&gotFile, d, maps); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotFile.Bytes(), wantFile.Bytes()) {
			t.Fatalf("%s: saved file differs from encoding/json's", doc.Name)
		}
	}
}

// TestDocumentErrorText: inputs off the plain path get encoding/json's
// own error text, type names included.
func TestDocumentErrorText(t *testing.T) {
	for in, want := range map[string]string{
		`{"fabric_w":"4"}`:                  `json: cannot unmarshal string into Go struct field Document.fabric_w of type int`,
		`{"ops":[{"kind":1.5}]}`:            `json: cannot unmarshal number 1.5 into Go struct field DocOp.ops.kind of type int`,
		`5`:                                 `json: cannot unmarshal number into Go value of type arch.Document`,
		`{"name":"x"} trailing`:             `invalid character 't' after top-level value`,
		`{"fabric_w":99999999999999999999}`: `json: cannot unmarshal number 99999999999999999999 into Go struct field Document.fabric_w of type int`,
	} {
		var doc arch.Document
		if err := doc.UnmarshalJSON([]byte(in)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", in, err, want)
		}
	}
}
