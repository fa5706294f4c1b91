package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// Scenario is a named, self-contained benchmark workload: an operation
// mix, the policy-shape catalog its resources and churned rules rotate
// through, and an optional tenant partitioning. Both cmd/acbench and
// cmd/gengraph resolve scenarios from the registry by name, so adding a
// scenario here makes it addressable everywhere.
type Scenario struct {
	// Name addresses the scenario in the registry and in benchmark
	// artifacts.
	Name string
	// Description is the one-line summary -list flags print.
	Description string
	// Mix weighs the scenario's operation families.
	Mix Mix
	// Catalog is the policy-shape rotation for resources and churned
	// rules; nil means DefaultCatalog.
	Catalog []QuerySpec
	// Tenants > 1 partitions the namespace: resource i belongs to tenant
	// i mod Tenants, is named "tNN/resNNNNN", and is owned by a member of
	// that tenant's stratum (ids ≡ tenant mod Tenants — the same
	// round-robin rule the generators use for communities, so tenant
	// boundaries align with community boundaries).
	Tenants int
}

// catalogOrDefault resolves the scenario's effective catalog.
func (sc Scenario) catalogOrDefault() []QuerySpec {
	if len(sc.Catalog) > 0 {
		return sc.Catalog
	}
	return DefaultCatalog()
}

// GenConfig returns the generator configuration the scenario implies on
// top of base: its catalog (so churn shares rules of the scenario's
// shape family). The caller still sets Resources, Worker and Workers.
func (sc Scenario) GenConfig(base GenConfig) GenConfig {
	base.Catalog = sc.catalogOrDefault()
	return base
}

// Resources picks n resources for the scenario over src: owners have
// outgoing edges (so policies can match someone), policy shapes rotate
// through the scenario's catalog, and with Tenants > 1 each resource is
// namespaced into its tenant. Deterministic for a given seed.
func (sc Scenario) Resources(src Source, n int, seed int64) []ResourceSpec {
	rng := rand.New(rand.NewSource(seed))
	catalog := sc.catalogOrDefault()
	nodes := src.NumNodes()
	tenants := sc.Tenants
	if tenants < 1 {
		tenants = 1
	}
	if tenants > nodes {
		tenants = nodes
	}
	specs := make([]ResourceSpec, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("res%05d", i)
		var owner graph.NodeID
		if tenants > 1 {
			t := i % tenants
			name = fmt.Sprintf("t%02d/res%05d", t, i)
			// Tenant t's members are t, t+tenants, t+2*tenants, ...
			stratum := (nodes - t + tenants - 1) / tenants
			owner = graph.NodeID(t + rng.Intn(stratum)*tenants)
			for try := 0; src.OutDegree(owner) == 0 && try < 64; try++ {
				owner = graph.NodeID(t + rng.Intn(stratum)*tenants)
			}
		} else {
			owner = graph.NodeID(rng.Intn(nodes))
			for try := 0; src.OutDegree(owner) == 0 && try < 64; try++ {
				owner = graph.NodeID(rng.Intn(nodes))
			}
		}
		specs = append(specs, ResourceSpec{
			Name:  name,
			Owner: owner,
			Paths: []string{catalog[i%len(catalog)].Path.String()},
		})
	}
	return specs
}

var (
	registryMu    sync.RWMutex
	registry      = make(map[string]Scenario)
	registryOrder []string
)

// Register adds a scenario to the registry. It fails on an empty name, a
// duplicate name, or a mix with no positive weight.
func Register(sc Scenario) error {
	if sc.Name == "" {
		return fmt.Errorf("workload: scenario needs a name")
	}
	if sc.Mix.Check+sc.Mix.CheckBatch+sc.Mix.Audience+sc.Mix.Mutate+sc.Mix.Churn <= 0 {
		return fmt.Errorf("workload: scenario %q has no positive mix weight", sc.Name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[sc.Name]; dup {
		return fmt.Errorf("workload: scenario %q already registered", sc.Name)
	}
	if sc.Mix.Name == "" {
		sc.Mix.Name = sc.Name
	}
	registry[sc.Name] = sc
	registryOrder = append(registryOrder, sc.Name)
	return nil
}

// MustRegister is Register for init-time built-ins; it panics on error.
func MustRegister(sc Scenario) {
	if err := Register(sc); err != nil {
		panic(err)
	}
}

// Lookup resolves a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	sc, ok := registry[name]
	return sc, ok
}

// Names lists registered scenario names in registration order (built-ins
// first, in the order below).
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return append([]string(nil), registryOrder...)
}

// Scenarios lists registered scenarios in registration order.
func Scenarios() []Scenario {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Scenario, 0, len(registryOrder))
	for _, name := range registryOrder {
		out = append(out, registry[name])
	}
	return out
}

// SortedNames lists registered scenario names alphabetically, for help
// text.
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}

func init() {
	// The six original mixes, now first-class scenarios over the default
	// catalog.
	MustRegister(Scenario{
		Name:        "read-heavy",
		Description: "95/5 check/mutate — a social network's serving traffic",
		Mix:         Mix{Name: "read-heavy", Check: 0.95, Mutate: 0.05},
	})
	MustRegister(Scenario{
		Name:        "write-heavy",
		Description: "50/50 check/mutate — relationship-churn-dominated traffic",
		Mix:         Mix{Name: "write-heavy", Check: 0.50, Mutate: 0.50},
	})
	MustRegister(Scenario{
		Name:        "check-batch",
		Description: "batched many-requester decisions — feed assembly",
		Mix:         Mix{Name: "check-batch", CheckBatch: 1.0, BatchSize: 16},
	})
	MustRegister(Scenario{
		Name:        "audience-scan",
		Description: "audience enumeration with point checks — 'who can see this?'",
		Mix:         Mix{Name: "audience-scan", Audience: 0.75, Check: 0.25},
	})
	MustRegister(Scenario{
		Name:        "churn",
		Description: "50/50 check/share-revoke — policy lifecycle cycling",
		Mix:         Mix{Name: "churn", Check: 0.50, Churn: 0.50},
	})
	// mixed-shape interleaves cheap star-shaped point checks with deep
	// multi-step audience enumerations under relationship churn — the
	// regime where no single static engine wins, and where checks and
	// audiences share one snapshot's search engine and plans.
	MustRegister(Scenario{
		Name:        "mixed-shape",
		Description: "point checks + deep audiences under churn",
		Mix:         Mix{Name: "mixed-shape", Check: 0.55, CheckBatch: 0.10, Audience: 0.20, Mutate: 0.10, Churn: 0.05},
	})

	// multi-tenant partitions resources into 8 namespaces whose owners
	// come from disjoint member strata, modeling a provider hosting many
	// isolated communities on one directory.
	MustRegister(Scenario{
		Name:        "multi-tenant",
		Description: "8 tenant namespaces with stratified owners, read-mostly",
		Mix:         Mix{Name: "multi-tenant", Check: 0.85, Audience: 0.05, Mutate: 0.10},
		Tenants:     8,
	})
	// time-bounded models expiring shares: rules are granted and revoked
	// at a high rate (as the interval engine's validity windows open and
	// close), over depth-window shapes whose lower bounds exercise the
	// [min,max] part of the path language.
	MustRegister(Scenario{
		Name:        "time-bounded",
		Description: "heavy share/revoke cycling with depth-window policies — interval-engine regime",
		Mix:         Mix{Name: "time-bounded", Check: 0.55, Audience: 0.05, Churn: 0.40},
		Catalog: []QuerySpec{
			{"window-friends", pathexpr.MustParse("friend+[1,2]")},
			{"ring-friends", pathexpr.MustParse("friend+[2,3]")},
			{"far-colleagues", pathexpr.MustParse("colleague+[2,4]")},
			{"friend-then-colleagues", pathexpr.MustParse("friend+[1]/colleague+[1,2]")},
		},
	})
	// trust-graded keeps a single relationship type and grades access
	// purely by depth — the carminati engine's (type, depth) rule model,
	// where trust decays with distance.
	MustRegister(Scenario{
		Name:        "trust-graded",
		Description: "single-type depth-graded policies — carminati-engine regime",
		Mix:         Mix{Name: "trust-graded", Check: 0.90, Audience: 0.10},
		Catalog: []QuerySpec{
			{"trust-1", pathexpr.MustParse("friend+[1]")},
			{"trust-2", pathexpr.MustParse("friend+[1,2]")},
			{"trust-3", pathexpr.MustParse("friend+[1,3]")},
			{"trust-4", pathexpr.MustParse("friend+[1,4]")},
			{"colleague-trust", pathexpr.MustParse("colleague+[1,2]")},
		},
	})
	// delegation chains heterogeneous steps — group-nesting shapes where
	// access flows through an intermediary (my colleagues' friends, my
	// parents' networks, people who consider my colleague a friend).
	MustRegister(Scenario{
		Name:        "delegation",
		Description: "group-nesting delegation chains through intermediaries",
		Mix:         Mix{Name: "delegation", Check: 0.70, CheckBatch: 0.10, Audience: 0.10, Mutate: 0.10},
		Catalog: []QuerySpec{
			{"via-colleagues", pathexpr.MustParse("colleague+[1]/friend+[1,2]")},
			{"via-parents", pathexpr.MustParse("parent+[1,2]/friend+[1]")},
			{"nested-groups", pathexpr.MustParse("friend+[1,2]/colleague+[1]/friend+[1]")},
			{"reverse-delegate", pathexpr.MustParse("friend-[1]/colleague+[1]")},
		},
	})
}
