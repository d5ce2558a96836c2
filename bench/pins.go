package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"clusterq/internal/sim"
)

// pinSeed is the default seed; only its runs are checked against the
// digest pins. Seeds 2 and 3 are held out for claims.
const pinSeed = 1

// pinnedOps is how many leading ops of validate and overload carry pins.
const pinnedOps = 3

// pins are the recorded outputs the benchmark checks ops against: result
// digests for the first ops of validate and overload at the default seed,
// the reference objective of every plan problem, and the mean power of
// every autoscale pool run. Regenerate them with -write-pins after a change
// that is meant to alter results.
type pins struct {
	Validate  []string           `json:"validate"`
	Overload  []string           `json:"overload"`
	Plan      map[string]float64 `json:"plan"`
	Autoscale []float64          `json:"autoscale"`
}

//go:embed testdata/pins.json
var pinsJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("testdata/pins.json: %w", err)
	}
	return p, nil
}

// digest fingerprints a simulation result bit for bit: %#v prints every
// float in its shortest exact form and every map in key order. The probe
// timeline is a pointer, so its rows are written out separately.
func digest(res *sim.Result) (string, error) {
	h := sha256.New()
	r := *res
	r.Timeline = nil
	if _, err := fmt.Fprintf(h, "%#v", r); err != nil {
		return "", err
	}
	if res.Timeline != nil {
		if err := res.Timeline.WriteCSV(h); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// checkPin compares op i's result with its pin, when there is one.
func checkPin(pinned []string, i int, res *sim.Result) error {
	if i < 0 || i >= len(pinned) {
		return nil
	}
	d, err := digest(res)
	if err != nil {
		return err
	}
	if d != pinned[i] {
		return fmt.Errorf("op %d: result digest %s differs from the pin %s", i, d, pinned[i])
	}
	return nil
}

// writePins regenerates every pin from the current code and writes them to
// path. The output is a pure function of the code, so writing twice gives
// identical bytes.
func writePins(path string) error {
	var p pins
	v, err := newValidate(pinSeed, nil)
	if err != nil {
		return err
	}
	o, err := newOverload(pinSeed, nil)
	if err != nil {
		return err
	}
	for i := 0; i < pinnedOps; i++ {
		res, _, err := v.simulate(nil, i)
		if err != nil {
			return err
		}
		d, err := digest(res)
		if err != nil {
			return err
		}
		p.Validate = append(p.Validate, d)

		res, _, _, err = o.replicate(nil, i, true)
		if err != nil {
			return err
		}
		if d, err = digest(res); err != nil {
			return err
		}
		p.Overload = append(p.Overload, d)
	}
	probs, err := planProblems()
	if err != nil {
		return err
	}
	p.Plan = make(map[string]float64, len(probs))
	for _, pr := range probs {
		sol, err := pr.solve()
		if err != nil {
			return fmt.Errorf("plan %s: %w", pr.key, err)
		}
		p.Plan[pr.key] = sol.Objective
	}
	a, err := newAutoscale(pinSeed, nil)
	if err != nil {
		return err
	}
	for r := 0; r < autoRuns; r++ {
		res, err := a.controlled(nil, r, 0, false)
		if err != nil {
			return err
		}
		if err := a.outcome(r, res); err != nil {
			return err
		}
		p.Autoscale = append(p.Autoscale, res.TotalPower.Mean)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
