package serclient

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wireTypes is the complete set of schemas served or accepted over
// HTTP. docs/api.md must mention every json field of every one of
// them, so the reference cannot silently drift from the code.
var wireTypes = []any{
	AnalyzeRequest{}, AnalyzeResponse{}, GateResult{}, SequentialResult{},
	SusceptibilityRequest{}, SusceptibilityResponse{}, SusceptibilityEntry{},
	OptimizeRequest{}, OptimizeResponse{},
	BatchRequest{}, BatchResponse{},
	AnalyzeBatchItem{}, OptimizeBatchItem{}, SusceptibilityBatchItem{},
	JobResponse{}, HealthResponse{}, ReadyResponse{},
	MetricsResponse{}, LatencySummary{}, CompiledCacheMetrics{},
	ArtifactCacheMetrics{},
	ErrorResponse{},
	ShardInfo{}, ShardsResponse{}, ShardRegisterRequest{},
	RouteRequest{}, RouteResponse{},
	RouterReadyResponse{}, ShardMetrics{},
	RouterAggregateMetrics{}, RouterMetricsResponse{},
	TimingsReport{}, StageTiming{},
	DebugRequestEntry{}, DebugRequestsResponse{},
}

// endpoints every serd or router process serves; each path must be
// documented.
var documentedEndpoints = []string{
	"/v1/analyze", "/v1/optimize", "/v1/susceptibility", "/v1/batch",
	"/v1/jobs/{id}", "/v1/shards", "/v1/shards/{name}", "/v1/route",
	"/healthz", "/readyz", "/metrics", "/debug/requests",
}

// jsonTags collects the json field names of a struct type,
// recursing into embedded structs.
func jsonTags(t reflect.Type, into map[string]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				jsonTags(f.Type, into)
			}
			continue
		}
		into[tag] = t.Name() + "." + f.Name
	}
}

// docTypeName matches a backticked name in docs/api.md that is
// spelled like a wire type.
var docTypeName = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:Request|Response|Result|Item|Metrics|Entry|Report|Timing|Info|Summary))`")

// TestAPIDocCoversWireTypes fails when a wire field or endpoint is
// absent from docs/api.md, or when the doc names a wire type that no
// longer exists. Fields are matched as `tag` (backticked), the way the
// reference tables spell them.
func TestAPIDocCoversWireTypes(t *testing.T) {
	raw, err := os.ReadFile("../docs/api.md")
	if err != nil {
		t.Fatalf("docs/api.md must exist alongside the wire types: %v", err)
	}
	doc := string(raw)

	tags := map[string]string{}
	for _, v := range wireTypes {
		jsonTags(reflect.TypeOf(v), tags)
	}
	for tag, origin := range tags {
		if !strings.Contains(doc, "`"+tag+"`") {
			t.Errorf("docs/api.md does not document json field %q (%s)", tag, origin)
		}
	}
	for _, ep := range documentedEndpoints {
		if !strings.Contains(doc, ep) {
			t.Errorf("docs/api.md does not document endpoint %s", ep)
		}
	}
	known := map[string]bool{}
	for _, typ := range wireTypes {
		name := reflect.TypeOf(typ).Name()
		known[name] = true
		if !strings.Contains(doc, name) {
			t.Errorf("docs/api.md never names wire type %s", name)
		}
	}
	for _, m := range docTypeName.FindAllStringSubmatch(doc, -1) {
		if !known[m[1]] {
			t.Errorf("docs/api.md names %s, which is not a wire type", m[1])
		}
	}
}
