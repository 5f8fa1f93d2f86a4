package tune

// Search-space discovery: the space is built from a daemon's /v1/registry
// response — registered names, server caps and per-(workload, target)
// feasible size grids — never hardcoded, so a tuner pointed at any
// cwserve (including one with externally registered targets) searches
// exactly what that daemon can measure.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"configwall/internal/core"
	"configwall/internal/serve"
)

// Filters restricts a discovered search space.
type Filters struct {
	// Targets/Workloads/Pipelines keep only the named entries (empty
	// keeps everything the registry reports). Unknown names are errors
	// listing the valid ones.
	Targets   []string
	Workloads []string
	Pipelines []string
	// MaxSize drops cells with sweep size above it; 0 keeps all.
	MaxSize int
}

// Space is one search space: the cells strategies may measure, plus the
// held-out validation cells they must never see (Eggensperger et al.:
// search and validation must not share cells).
type Space struct {
	// Cells is the searchable space, in deterministic
	// target → workload → pipeline → size order.
	Cells []core.Experiment
	// Holdout is the held-out validation set.
	Holdout []core.Experiment
	// HoldoutSizes lists the held-out sweep sizes, ascending.
	HoldoutSizes []int
}

// SpaceFromRegistry expands a registry response into a search space:
// the cross product of the (filtered) targets, workloads and pipelines
// with each (workload, target) pair's feasible sizes, minus the seeded
// held-out validation split. The holdout draws ~a quarter of the distinct
// sizes from the interior of the grid (the endpoint sizes always stay
// searchable) using only the seed, so equal seeds build equal spaces.
func SpaceFromRegistry(info serve.RegistryInfo, f Filters, seed int64) (Space, error) {
	targets, err := filterNames("target", f.Targets, info.Targets)
	if err != nil {
		return Space{}, err
	}
	workloads, err := filterNames("workload", f.Workloads, info.Workloads)
	if err != nil {
		return Space{}, err
	}
	pipeNames, err := filterNames("pipeline", f.Pipelines, info.Pipelines)
	if err != nil {
		return Space{}, err
	}
	pipes := make([]core.Pipeline, len(pipeNames))
	for i, name := range pipeNames {
		if pipes[i], err = core.PipelineByName(name); err != nil {
			return Space{}, err
		}
	}

	var all []core.Experiment
	for _, t := range targets {
		for _, w := range workloads {
			sizes := info.Sizes[w][t]
			for _, p := range pipes {
				for _, n := range sizes {
					if f.MaxSize > 0 && n > f.MaxSize {
						continue
					}
					all = append(all, core.Experiment{Target: t, Workload: w, Pipeline: p, N: n})
				}
			}
		}
	}
	if len(all) == 0 {
		return Space{}, fmt.Errorf("empty search space: no feasible (target, workload, size) cells after filtering")
	}

	held := holdoutSizes(all, seed)
	heldSet := make(map[int]bool, len(held))
	for _, n := range held {
		heldSet[n] = true
	}
	sp := Space{HoldoutSizes: held}
	for _, e := range all {
		if heldSet[e.N] {
			sp.Holdout = append(sp.Holdout, e)
		} else {
			sp.Cells = append(sp.Cells, e)
		}
	}
	return sp, nil
}

// holdoutSizes picks the held-out sweep sizes: ~a quarter of the distinct
// sizes, seeded, interior-only. Fewer than three distinct sizes means no
// holdout — there is no interior to draw from.
func holdoutSizes(cells []core.Experiment, seed int64) []int {
	seen := make(map[int]bool)
	var distinct []int
	for _, e := range cells {
		if !seen[e.N] {
			seen[e.N] = true
			distinct = append(distinct, e.N)
		}
	}
	sort.Ints(distinct)
	if len(distinct) < 3 {
		return nil
	}
	interior := distinct[1 : len(distinct)-1]
	h := len(distinct) / 4
	if h < 1 {
		h = 1
	}
	if h > len(interior) {
		h = len(interior)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(interior))
	held := make([]int, h)
	for i := range held {
		held[i] = interior[perm[i]]
	}
	sort.Ints(held)
	return held
}

// filterNames resolves a name filter against the registry's valid list:
// empty keeps everything, duplicates collapse, and an unknown name fails
// fast listing every valid one (the cwopt -p convention).
func filterNames(kind string, want, valid []string) ([]string, error) {
	if len(want) == 0 {
		return valid, nil
	}
	ok := make(map[string]bool, len(valid))
	for _, v := range valid {
		ok[v] = true
	}
	seen := make(map[string]bool, len(want))
	var out []string
	for _, w := range want {
		if !ok[w] {
			return nil, fmt.Errorf("unknown %s %q (valid %ss: %s)", kind, w, kind, strings.Join(valid, ", "))
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out, nil
}
