package serve

import (
	"hash/fnv"
	"math"
	"sync"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/geo"
)

// World wraps the resident simulated world a serve process annotates
// routes against, plus a bounded cache of prepared sequences so repeated
// requests for the same (model shape, route) skip annotation and tensor
// preparation entirely. The underlying world is read-only after
// construction, so annotation can run for many requests concurrently; the
// cache is the only synchronized state.
type World struct {
	ds   *dataset.Dataset
	name string

	mu    sync.Mutex
	cache map[uint64]*core.Sequence
	order []uint64 // insertion order for FIFO eviction
	limit int
}

// DefaultPrepCache bounds the prepared-sequence cache (sequences for long
// routes hold per-step cell/env tensors, so the cap is deliberately small).
const DefaultPrepCache = 64

// NewWorld builds the dataset world once; name is any scenario registered
// with dataset.NewByName.
func NewWorld(name string, spec dataset.Spec) (*World, error) {
	ds, err := dataset.NewByName(name, spec)
	if err != nil {
		return nil, err
	}
	return NewWorldFrom(ds), nil
}

// NewWorldFrom wraps an already-built dataset. Callers that need both the
// raw dataset (held-out runs, simulator ground truth) and a serving world —
// the statistical validation gate is one — construct the dataset once and
// share it instead of paying for world synthesis twice.
func NewWorldFrom(ds *dataset.Dataset) *World {
	return &World{ds: ds, name: ds.Name, cache: make(map[uint64]*core.Sequence), limit: DefaultPrepCache}
}

// Name reports which dataset world (scenario name) is resident.
func (w *World) Name() string { return w.name }

// Dataset exposes the resident dataset (tests pull known routes from it).
func (w *World) Dataset() *dataset.Dataset { return w.ds }

// Prepare annotates the route with the world's network and environment
// context and converts it to the model-ready sequence, memoizing the
// result. Prepared sequences are read-only on the generation path, so a
// cached sequence can back any number of concurrent requests.
func (w *World) Prepare(tr geo.Trajectory, g core.Generator) (*core.Sequence, bool) {
	cfg := g.ModelConfig()
	key := prepKey(tr, cfg)
	w.mu.Lock()
	if seq, ok := w.cache[key]; ok {
		w.mu.Unlock()
		return seq, true
	}
	w.mu.Unlock()

	// Annotation runs unlocked: it is the expensive part and is safe to
	// race (worst case two requests prepare the same route and one result
	// wins the cache slot).
	run := dataset.Run{Scenario: "serve", Traj: tr, Meas: w.ds.World.Annotate(tr)}
	seq := core.PrepareSequenceWith(run, cfg.Channels, core.PrepareOptions{
		MaxCells: cfg.MaxCells, LoadAware: cfg.LoadAware,
	})

	w.mu.Lock()
	if _, ok := w.cache[key]; !ok {
		w.cache[key] = seq
		w.order = append(w.order, key)
		for len(w.order) > w.limit {
			delete(w.cache, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.mu.Unlock()
	return seq, false
}

// prepKey hashes the route and the model properties that shape a prepared
// sequence (channel set, cell cap, load awareness). Two models trained with
// the same channels and preparation options share cache entries.
func prepKey(tr geo.Trajectory, cfg core.Config) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, ch := range cfg.Channels {
		h.Write([]byte(ch.Name))
		h.Write([]byte{0})
	}
	u64(uint64(cfg.MaxCells))
	if cfg.LoadAware {
		u64(1)
	} else {
		u64(0)
	}
	for _, p := range tr {
		f64(p.T)
		f64(p.Lat)
		f64(p.Lon)
	}
	return h.Sum64()
}
