package workload

import (
	"strings"
	"testing"

	"reachac/internal/generate"
)

// TestRegistryBuiltins: the six original mixes plus the four new policy
// scenarios are all registered, resolvable, and produce working
// generators.
func TestRegistryBuiltins(t *testing.T) {
	want := []string{
		"read-heavy", "write-heavy", "check-batch", "audience-scan",
		"churn", "mixed-shape",
		"multi-tenant", "time-bounded", "trust-graded", "delegation",
	}
	names := Names()
	if len(names) < len(want) {
		t.Fatalf("registry has %d scenarios, want at least %d", len(names), len(want))
	}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("registration order[%d] = %q, want %q", i, names[i], w)
		}
		sc, ok := Lookup(w)
		if !ok {
			t.Fatalf("Lookup(%q) missing", w)
		}
		if sc.Description == "" {
			t.Fatalf("%s: no description", w)
		}
		if sc.Mix.Name != w {
			t.Fatalf("%s: mix named %q", w, sc.Mix.Name)
		}
	}
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(300), generate.WithSeed(1)))
	for _, sc := range Scenarios() {
		specs := sc.Resources(g, 8, 4)
		if len(specs) != 8 {
			t.Fatalf("%s: %d specs", sc.Name, len(specs))
		}
		gen := NewGenerator(g, sc.Mix, sc.GenConfig(GenConfig{Resources: specs}), 7)
		for i := 0; i < 200; i++ {
			op := gen.Next()
			if op.Kind == OpShare && len(op.Paths) == 0 {
				t.Fatalf("%s: share without paths", sc.Name)
			}
		}
	}
}

// TestRegistryRejects: empty names, duplicates and weightless mixes must
// not register.
func TestRegistryRejects(t *testing.T) {
	if err := Register(Scenario{Mix: Mix{Check: 1}}); err == nil {
		t.Fatal("nameless scenario registered")
	}
	if err := Register(Scenario{Name: "read-heavy", Mix: Mix{Check: 1}}); err == nil {
		t.Fatal("duplicate name registered")
	}
	if err := Register(Scenario{Name: "weightless"}); err == nil {
		t.Fatal("weightless mix registered")
	}
	if _, ok := Lookup("weightless"); ok {
		t.Fatal("rejected scenario is resolvable")
	}
}

// TestMultiTenantPartitioning: tenant resources must be namespaced and
// owned inside their tenant's member stratum.
func TestMultiTenantPartitioning(t *testing.T) {
	sc, ok := Lookup("multi-tenant")
	if !ok {
		t.Fatal("multi-tenant missing")
	}
	if sc.Tenants != 8 {
		t.Fatalf("tenants = %d", sc.Tenants)
	}
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(400), generate.WithSeed(2)))
	specs := sc.Resources(g, 32, 9)
	for i, spec := range specs {
		tenant := i % 8
		if !strings.HasPrefix(spec.Name, "t0") {
			t.Fatalf("spec %d not namespaced: %q", i, spec.Name)
		}
		if int(spec.Owner)%8 != tenant {
			t.Fatalf("spec %d (%s): owner %d outside tenant %d stratum",
				i, spec.Name, spec.Owner, tenant)
		}
	}
}

// TestScenarioCatalogsParse: every scenario's catalog rotates into
// resource paths that are non-empty and per-scenario distinct where a
// custom catalog is declared.
func TestScenarioCatalogsParse(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(200), generate.WithSeed(3)))
	defaultPaths := map[string]bool{}
	for _, q := range DefaultCatalog() {
		defaultPaths[q.Path.String()] = true
	}
	for _, name := range []string{"time-bounded", "trust-graded", "delegation"} {
		sc, _ := Lookup(name)
		if len(sc.Catalog) == 0 {
			t.Fatalf("%s: expected a custom catalog", name)
		}
		custom := false
		for _, spec := range sc.Resources(g, 6, 1) {
			if len(spec.Paths) == 0 || spec.Paths[0] == "" {
				t.Fatalf("%s: empty policy path", name)
			}
			if !defaultPaths[spec.Paths[0]] {
				custom = true
			}
		}
		if !custom {
			t.Fatalf("%s: catalog indistinguishable from default", name)
		}
	}
}
