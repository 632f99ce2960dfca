package frontend

import "testing"

// FuzzCompileSource feeds arbitrary text to the frontend. It must never
// panic, and every program it accepts must compile to a valid, acyclic
// graph whose named values point at real ops.
//
//	go test -run=NONE -fuzz=FuzzCompileSource -fuzztime=15s ./internal/frontend/
func FuzzCompileSource(f *testing.F) {
	for _, src := range []string{
		"y = a + b;",
		"y = a << b; z = a ^ b;",
		"y = a | b ^ c & d << e + f * g;",
		"y = (a + b) * c;",
		"t0 = a * b;\nt1 = t0 + c;\nt2 = t1 + t0;\nout = t2 * d;",
		"y = a * 3 + 1;",
		"y = x; z = y + 1;",
		"acc = a * b;\nacc = acc + c;\nout = acc + d;",
		"y = z + 1; z = a * b;",
		"y = (a + b;",
		"y = a $ b;",
		"/* unterminated",
		"// line comment\ny = a + b; /* block\n comment */ z = y * c;",
		"p0 = x0 * c0; p1 = x1 * c1; s0 = p0 + p1; out = s0 - p1 >> 2;",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := CompileSource(src)
		if err != nil {
			return
		}
		g := r.Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted %q into an invalid graph: %v", src, err)
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("accepted %q into a cyclic graph: %v", src, err)
		}
		if len(order) != g.NumOps() {
			t.Fatalf("%q: topological order has %d of %d ops", src, len(order), g.NumOps())
		}
		for name, op := range r.OpOf {
			if op < -1 || op >= g.NumOps() {
				t.Fatalf("%q: %s bound to op %d of %d", src, name, op, g.NumOps())
			}
		}
	})
}
