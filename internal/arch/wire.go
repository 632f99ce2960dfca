package arch

import (
	"encoding/json"
	"sort"
	"strconv"

	"agingfp/internal/wire"
)

// plainDocument names Document inside UnmarshalJSON, where a local
// type of the same name shadows it. A type declared from it has
// Document's fields and none of its methods, so encoding/json decodes
// it by reflection instead of calling back into UnmarshalJSON.
type plainDocument = Document

// UnmarshalJSON decodes a design document. The plain form clients send
// is read by schema (internal/wire); any other input, and any decode
// into a document that is not zero, goes to encoding/json unchanged, so
// the two accept, reject and decode the same inputs.
func (doc *Document) UnmarshalJSON(data []byte) error {
	if doc.isZero() {
		s := wire.NewScanner(data)
		doc.ScanJSON(&s)
		if s.Done() {
			return nil
		}
		*doc = Document{}
	}
	// Declared here so encoding/json's messages name "Document".
	type Document plainDocument
	return json.Unmarshal(data, (*Document)(doc))
}

func (doc *Document) isZero() bool {
	return doc.Name == "" && doc.FabricW == 0 && doc.FabricH == 0 && doc.NumContexts == 0 &&
		doc.ClockPeriodNs == 0 && doc.UnitWireDelayNs == 0 &&
		doc.Ops == nil && doc.Edges == nil && doc.Mappings == nil
}

// ScanJSON reads one document from s into doc, which must be zero. A
// request decoder calls it for an embedded design, so the design is
// read in the request's one pass; s records whether the input stayed
// on the plain path.
func (doc *Document) ScanJSON(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "name":
			if s.Field(&seen, 0) {
				doc.Name = s.Text()
			}
		case "fabric_w":
			if s.Field(&seen, 1) {
				doc.FabricW = s.Int()
			}
		case "fabric_h":
			if s.Field(&seen, 2) {
				doc.FabricH = s.Int()
			}
		case "num_contexts":
			if s.Field(&seen, 3) {
				doc.NumContexts = s.Int()
			}
		case "clock_period_ns":
			if s.Field(&seen, 4) {
				doc.ClockPeriodNs = s.Float64()
			}
		case "unit_wire_delay_ns":
			if s.Field(&seen, 5) {
				doc.UnitWireDelayNs = s.Float64()
			}
		case "ops":
			if s.Field(&seen, 6) {
				doc.Ops = scanOps(s)
			}
		case "edges":
			if s.Field(&seen, 7) {
				doc.Edges = s.Pairs()
			}
		case "mappings":
			if s.Field(&seen, 8) {
				doc.Mappings = map[string][][2]int{}
				for more := s.Object(); more; more = s.More('}') {
					name := s.MapKey()
					if s.Null() {
						doc.Mappings[name] = nil
					} else {
						doc.Mappings[name] = s.Pairs()
					}
				}
			}
		default:
			s.Fail()
		}
	}
}

func scanOps(s *wire.Scanner) []DocOp {
	ops := []DocOp{}
	for more := s.Array(); more; more = s.More(']') {
		var (
			op   DocOp
			seen uint64
		)
		for more := s.Object(); more; more = s.More('}') {
			switch string(s.Key()) {
			case "kind":
				if s.Field(&seen, 0) {
					op.Kind = s.Int()
				}
			case "name":
				if s.Field(&seen, 1) {
					op.Name = s.Text()
				}
			case "ctx":
				if s.Field(&seen, 2) {
					op.Ctx = s.Int()
				}
			default:
				s.Fail()
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// MarshalJSON encodes doc byte for byte as encoding/json encodes the
// struct.
func (doc Document) MarshalJSON() ([]byte, error) {
	return doc.AppendJSON(make([]byte, 0, doc.sizeHint()))
}

// sizeHint estimates the encoded length, so the buffer grows rarely.
func (doc *Document) sizeHint() int {
	n := 160 + len(doc.Name) + 36*len(doc.Ops) + 10*len(doc.Edges)
	for name, cells := range doc.Mappings {
		n += len(name) + 4 + 10*len(cells)
	}
	return n
}

// AppendJSON appends doc's compact JSON encoding to b. Its bytes equal
// encoding/json's Marshal of the struct, and so does its error for a
// timing constant that is NaN or infinite.
func (doc *Document) AppendJSON(b []byte) ([]byte, error) {
	if err := wire.CheckFloats(doc.ClockPeriodNs, doc.UnitWireDelayNs); err != nil {
		return nil, err
	}
	b = append(b, `{"name":`...)
	b = wire.AppendString(b, doc.Name)
	b = append(b, `,"fabric_w":`...)
	b = strconv.AppendInt(b, int64(doc.FabricW), 10)
	b = append(b, `,"fabric_h":`...)
	b = strconv.AppendInt(b, int64(doc.FabricH), 10)
	b = append(b, `,"num_contexts":`...)
	b = strconv.AppendInt(b, int64(doc.NumContexts), 10)
	b = append(b, `,"clock_period_ns":`...)
	b = wire.AppendFloat(b, doc.ClockPeriodNs)
	b = append(b, `,"unit_wire_delay_ns":`...)
	b = wire.AppendFloat(b, doc.UnitWireDelayNs)
	b = append(b, `,"ops":`...)
	if doc.Ops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, op := range doc.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"kind":`...)
			b = strconv.AppendInt(b, int64(op.Kind), 10)
			if op.Name != "" {
				b = append(b, `,"name":`...)
				b = wire.AppendString(b, op.Name)
			}
			b = append(b, `,"ctx":`...)
			b = strconv.AppendInt(b, int64(op.Ctx), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"edges":`...)
	b = wire.AppendPairs(b, doc.Edges)
	if len(doc.Mappings) > 0 {
		names := make([]string, 0, len(doc.Mappings))
		for name := range doc.Mappings {
			names = append(names, name)
		}
		sort.Strings(names)
		b = append(b, `,"mappings":{`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendString(b, name)
			b = append(b, ':')
			b = wire.AppendPairs(b, doc.Mappings[name])
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}
