package reachac

// PlannerOptions is WithPlanner's argument. It has no fields.
type PlannerOptions struct{}

// WithPlanner sets nothing. Every check already searches from both
// endpoints (see search.Engine.Reachable), so there is no routing left to
// switch on. It exists only because benchmark/setup.go:191 passes it, and
// goes with the benchmark PR that stops doing so.
func WithPlanner(PlannerOptions) Option {
	return func(*openConfig) {}
}
