package main

import (
	"encoding/json"
	"fmt"
	"math"

	"gendt/internal/core"
	"gendt/internal/geo"
	"gendt/internal/serve"
)

// validate is the output gate every 200 response passes through. It
// checks the response's shape against the request and every value against
// its channel's physical range, and returns the decoded response.
func validate(req request, body []byte, chans []core.ChannelSpec) (*serve.GenerateResponse, error) {
	var resp serve.GenerateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %v", err)
	}
	steps := len(req.Route)
	switch {
	case resp.Seed != req.Seed:
		return nil, fmt.Errorf("seed %d, want %d", resp.Seed, req.Seed)
	case resp.Steps != steps:
		return nil, fmt.Errorf("steps %d, want %d", resp.Steps, steps)
	case resp.Samples != req.Samples:
		return nil, fmt.Errorf("samples %d, want %d", resp.Samples, req.Samples)
	case len(resp.Channels) != len(chans):
		return nil, fmt.Errorf("%d channels, want %d", len(resp.Channels), len(chans))
	}
	for c, ch := range chans {
		if resp.Channels[c] != ch.Name {
			return nil, fmt.Errorf("channel %d is %q, want %q", c, resp.Channels[c], ch.Name)
		}
	}
	if err := inRange("series", resp.Series, chans, steps); err != nil {
		return nil, err
	}
	if req.Samples == 1 {
		if resp.Envelope != nil {
			return nil, fmt.Errorf("envelope on a single-sample response")
		}
		return &resp, nil
	}
	env := resp.Envelope
	if env == nil {
		return nil, fmt.Errorf("no envelope on a %d-sample response", req.Samples)
	}
	for _, part := range []struct {
		name string
		v    [][]float64
	}{{"envelope.min", env.Min}, {"envelope.max", env.Max}, {"envelope.mean", env.Mean}} {
		if err := inRange(part.name, part.v, chans, steps); err != nil {
			return nil, err
		}
	}
	for c := range chans {
		for t := 0; t < steps; t++ {
			lo, hi, mean, s := env.Min[c][t], env.Max[c][t], env.Mean[c][t], resp.Series[c][t]
			// The mean is a float sum divided by the sample count, so it
			// may round one ulp past an extreme when all samples agree.
			eps := 1e-9 * math.Max(1, math.Abs(hi))
			if mean < lo-eps || mean > hi+eps || s < lo || s > hi {
				return nil, fmt.Errorf("envelope channel %d step %d: min %g mean %g max %g sample0 %g", c, t, lo, mean, hi, s)
			}
		}
	}
	return &resp, nil
}

// inRange checks one [channel][t] block: right shape, every value finite
// and within its channel's [Lo, Hi].
func inRange(name string, v [][]float64, chans []core.ChannelSpec, steps int) error {
	if len(v) != len(chans) {
		return fmt.Errorf("%s has %d channels, want %d", name, len(v), len(chans))
	}
	for c, ch := range chans {
		if len(v[c]) != steps {
			return fmt.Errorf("%s channel %d has %d steps, want %d", name, c, len(v[c]), steps)
		}
		for t, x := range v[c] {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < ch.Lo || x > ch.Hi {
				return fmt.Errorf("%s channel %s step %d = %g outside [%g, %g]", name, ch.Name, t, x, ch.Lo, ch.Hi)
			}
		}
	}
	return nil
}

// generation is the part of a response the bit-identity probes compare.
type generation struct {
	Series   [][]float64
	Envelope *serve.EnvelopeJSON
}

// inProcess generates the probe the way a replica does, without HTTP:
// World.Prepare on a fresh world, then GenerateJobs with the per-sample
// seeds serve derives.
func inProcess(world *serve.World, g core.Generator, req request) generation {
	tr := make(geo.Trajectory, len(req.Route))
	for i, p := range req.Route {
		tr[i] = geo.Sample{Point: geo.Point{Lat: p.Lat, Lon: p.Lon}, T: p.T}
	}
	seq, _ := world.Prepare(tr, g)
	jobs := make([]core.GenJob, req.Samples)
	for i := range jobs {
		jobs[i] = core.GenJob{Seq: seq, Seed: core.DeriveSeed(req.Seed, i)}
	}
	outs := g.GenerateJobs(jobs)
	gen := generation{Series: outs[0]}
	if req.Samples > 1 {
		min, max, mean := core.Envelope(outs)
		gen.Envelope = &serve.EnvelopeJSON{Min: min, Max: max, Mean: mean}
	}
	return gen
}

// sameGeneration requires bit-identical floats. JSON carries float64s in
// their shortest round-trip form, so an HTTP response decodes to exactly
// the bits the server generated.
func sameGeneration(a, b generation) error {
	if err := sameBlock("series", a.Series, b.Series); err != nil {
		return err
	}
	if (a.Envelope == nil) != (b.Envelope == nil) {
		return fmt.Errorf("envelope present on one side only")
	}
	if a.Envelope == nil {
		return nil
	}
	if err := sameBlock("envelope.min", a.Envelope.Min, b.Envelope.Min); err != nil {
		return err
	}
	if err := sameBlock("envelope.max", a.Envelope.Max, b.Envelope.Max); err != nil {
		return err
	}
	return sameBlock("envelope.mean", a.Envelope.Mean, b.Envelope.Mean)
}

func sameBlock(name string, a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d channels", name, len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return fmt.Errorf("%s channel %d: %d vs %d steps", name, c, len(a[c]), len(b[c]))
		}
		for t := range a[c] {
			if math.Float64bits(a[c][t]) != math.Float64bits(b[c][t]) {
				return fmt.Errorf("%s channel %d step %d: %v vs %v", name, c, t, a[c][t], b[c][t])
			}
		}
	}
	return nil
}
