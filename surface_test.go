package subsum_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceConsumers is the census of the module's uncalled surface: each
// top-level function or method whose name no non-test code uses besides
// its declarations, with what consumes it. Anything else of that kind is
// deleted, or moved into the _test.go file of the package whose tests call
// it, not added here.
var surfaceConsumers = map[string]string{
	// Test hooks that other packages' tests call.
	"Clear":         "netsim.Faults: TestByteAccountingReconcilesUnderFaults (core)",
	"Connected":     "topology.Graph: TestGenerate (subsum-topo), TestTopologyFacade",
	"CorruptMerged": "broker.Broker: TestWatchdogCatchesCorruptedSummary (core)",
	"Live":          "workload.Churn: TestChurnSteadyState; the counter it reads is kept by Period",
	"MaskOf":        "subid: the summary tests' literal masks",
	"MatchInto":     "strmatch.Set: the summary tests' reference matcher",
	"Nodes":         "routing.Order: TestBatchedPipelineRaceSoak (core)",
	"NumEdges":      "topology.Graph: TestParseTopology (subsum-bench)",
	"Paused":        "netsim.Faults: TestNamedIDRetiredBeforeDelivery (core)",
	"QueryInto":     "interval.Set: the summary tests' reference matcher",
	"RandomTree":    "topology: TestHopsAlwaysBelowBrokerCount (propagation)",
	"Worst":         "slo.Report: TestSmokeScriptControl (scenario)",

	// The facade README names (subsum.go, the public facade), called by
	// the root package's tests and examples.
	"DecodeSummary":   "TestSummaryFacade",
	"DefaultWorkload": "TestWorkloadFacade",
	"NewGraph":        "TestTopologyFacade",
	"NewSummary":      "TestSummaryFacade, ExampleSummary_Match",
	"NewWorkload":     "TestWorkloadFacade",
	"RunPropagation":  "ExampleRunPropagation",

	// Interface methods the standard library calls.
	"Less": "sort.Interface (strmatch textSort)",

	// Planned: the deterministic scheduler the stepped-bus items of
	// ROADMAP build on; TestPooledAndSteppedDeliverTheSameSet (core).
	"NewSteppedBus": "ROADMAP items 2, 9 and 18",
}

// TestSurfaceCensus parses every non-test Go file of the repository — the
// root package, internal/, cmd/, examples/, experiments/ and benchmark/,
// which counts as a caller — and requires the functions and methods whose
// name appears in no non-test code but its own declarations to be exactly
// the census above. Matching is by name alone: a method counts as called
// when anything of its name is used, so this is a tripwire that keeps
// test-only code from growing back, not a proof that all code is reached.
func TestSurfaceCensus(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // name → the position of one declaration
	decl := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "main" || fn.Name.Name == "init" {
				continue
			}
			decl[fn.Name] = true
			declared[fn.Name.Name] = fset.Position(fn.Name.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var uncalled []string
	for name, at := range declared {
		_, listed := surfaceConsumers[name]
		switch {
		case !used[name] && !listed:
			uncalled = append(uncalled, name+" ("+at+")")
		case used[name] && listed:
			t.Errorf("census lists %s, which non-test code now calls: drop its entry", name)
		}
	}
	for name := range surfaceConsumers {
		if _, ok := declared[name]; !ok {
			t.Errorf("census lists %s, which no longer exists", name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s is called by no non-test code: delete it, move it into its package's tests, or name its consumer in the census", name)
	}
}
