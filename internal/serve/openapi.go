package serve

import "net/http"

// openAPIVersion is the spec revision served at /v1/openapi.json. Bump
// it when the API surface changes.
const openAPIVersion = "1.6.0"

// openAPIDocument assembles the OpenAPI 3 description from the route
// table plus the hand-maintained schema section. Paths come from the
// table (the same source the mux is wired from), so the spec cannot
// name a route that does not exist; TestOpenAPICoversRoutes checks the
// converse — every table row must round-trip through the served spec.
func (s *Server) openAPIDocument() map[string]interface{} {
	paths := map[string]interface{}{}
	for _, rt := range s.routes() {
		p, _ := paths[rt.Pattern].(map[string]interface{})
		if p == nil {
			p = map[string]interface{}{}
			paths[rt.Pattern] = p
		}
		op := map[string]interface{}{
			"summary":   rt.Summary,
			"responses": responsesFor(rt),
		}
		if rt.Method == "GET" && rt.Pattern == "/v1/jobs/{id}" {
			op["parameters"] = []interface{}{map[string]interface{}{
				"name": "wait", "in": "query", "required": false,
				"description": "Go duration (e.g. 30s, at most 60s) to block until the job is terminal; " +
					"the snapshot is returned when it is, or when the duration has passed",
				"schema": map[string]interface{}{"type": "string"},
			}, map[string]interface{}{
				"name": "after", "in": "query", "required": false,
				"description": "progress seq the caller last saw; the wait also ends once the job's progress.seq passes it",
				"schema":      map[string]interface{}{"type": "integer", "minimum": 0},
			}}
		}
		switch rt.Method {
		case "POST":
			p["post"] = op
		case "DELETE":
			p["delete"] = op
		default:
			p["get"] = op
		}
	}
	return map[string]interface{}{
		"openapi": "3.0.3",
		"info": map[string]interface{}{
			"title":       "agingfloord",
			"description": "MILP-based aging-aware floorplanning service for multi-context CGRRA fabrics",
			"version":     openAPIVersion,
		},
		"paths": paths,
		"components": map[string]interface{}{
			"schemas": openAPISchemas(),
		},
	}
}

// responsesFor lists the status codes each route can answer with. All
// error responses share the ErrorBody envelope.
func responsesFor(rt route) map[string]interface{} {
	errRef := map[string]interface{}{
		"description": "error envelope",
		"content": map[string]interface{}{
			"application/json": map[string]interface{}{
				"schema": ref("Error"),
			},
		},
	}
	out := map[string]interface{}{}
	switch {
	case rt.Method == "POST":
		out["202"] = okJSON("Snapshot")
		out["400"] = errRef
		out["503"] = errRef
		if rt.Pattern == "/v1/jobs/{id}/delta" {
			out["404"] = errRef
			out["409"] = errRef
		}
	case rt.Method == "DELETE":
		out["200"] = okJSON("Snapshot")
		out["404"] = errRef
	case rt.Pattern == "/v1/jobs/{id}/result":
		out["200"] = okJSON("JobResult")
		out["404"] = errRef
		out["409"] = errRef
	case rt.Pattern == "/v1/jobs/{id}":
		out["200"] = okJSON("Snapshot")
		out["400"] = errRef
		out["404"] = errRef
	case rt.Pattern == "/v1/slo":
		out["200"] = okJSON("SLOStatus")
		out["404"] = errRef
	default:
		out["200"] = map[string]interface{}{"description": "success"}
	}
	return out
}

func ref(name string) map[string]interface{} {
	return map[string]interface{}{"$ref": "#/components/schemas/" + name}
}

func okJSON(schema string) map[string]interface{} {
	return map[string]interface{}{
		"description": "success",
		"content": map[string]interface{}{
			"application/json": map[string]interface{}{"schema": ref(schema)},
		},
	}
}

// openAPISchemas declares the wire documents clients program against.
// Property lists are hand-maintained; the structural details live in
// the Go types' doc comments.
func openAPISchemas() map[string]interface{} {
	obj := func(props ...string) map[string]interface{} {
		m := map[string]interface{}{}
		for _, p := range props {
			m[p] = map[string]interface{}{}
		}
		return map[string]interface{}{"type": "object", "properties": m}
	}
	snapshot := obj("id", "trace_id", "tenant", "state", "error", "solve_kind", "base_job",
		"delta_fallback", "reuse", "cost", "submitted", "started", "finished")
	// A done snapshot's result is the JobResult document, byte for byte
	// as GET /v1/jobs/{id}/result serves it.
	snapshot["properties"].(map[string]interface{})["result"] = ref("JobResult")
	snapshot["properties"].(map[string]interface{})["progress"] = ref("Progress")
	return map[string]interface{}{
		"JobRequest":   obj("bench", "design", "mode", "seed", "time_limit_ms", "deadline_ms", "tenant"),
		"DeltaRequest": obj("design", "mode", "seed", "time_limit_ms", "deadline_ms", "tenant"),
		"Snapshot":     snapshot,
		"Cost": obj("tier", "queue_wait_ms", "solve_ms", "lp_solves", "simplex_iters",
			"st_probes", "phase_ms"),
		"Progress": obj("seq", "phase", "st_target", "st_probes", "relax_rounds", "batch", "batches",
			"lp_solves", "simplex_iters", "done", "status", "updated_us"),
		"SLOStatus": obj("window", "since", "until", "objectives"),
		"JobResult": obj("design", "ops", "contexts", "status", "improved", "st_target",
			"st_lower_bound", "orig_max_stress", "new_max_stress", "orig_cpd_ns",
			"new_cpd_ns", "mttf", "stats", "mapping"),
		"Error": map[string]interface{}{
			"type": "object",
			"properties": map[string]interface{}{
				"error": obj("code", "message", "trace_id"),
			},
		},
	}
}

func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.openAPIDocument())
}
