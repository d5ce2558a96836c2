package cluster

import (
	"encoding/json"
	"fmt"
	"strings"

	"clusterq/internal/power"
	"clusterq/internal/queueing"
)

// Config is the JSON-serializable description of a cluster, consumed by the
// cmd tools and examples. It mirrors the in-memory Cluster but with plain
// data fields for the interface-typed members (power model, discipline).
type Config struct {
	Tiers   []TierConfig  `json:"tiers"`
	Classes []ClassConfig `json:"classes"`
	Routes  [][]int       `json:"routes,omitempty"`
	// Routing optionally gives classes probabilistic routing chains; a
	// null entry keeps the class on its deterministic route.
	Routing []*RoutingConfig `json:"routing,omitempty"`
}

// RoutingConfig is the JSON form of a probabilistic routing chain.
type RoutingConfig struct {
	// Entry[j] is the probability of entering at tier j (sums to 1).
	Entry []float64 `json:"entry"`
	// Next[i][j] is the probability of moving to tier j after tier i;
	// the residual row mass is the exit probability.
	Next [][]float64 `json:"next"`
}

// TierConfig describes one tier.
type TierConfig struct {
	Name          string      `json:"name"`
	Servers       int         `json:"servers"`
	Speed         float64     `json:"speed"`
	MinSpeed      float64     `json:"min_speed,omitempty"`
	MaxSpeed      float64     `json:"max_speed,omitempty"`
	Discipline    string      `json:"discipline"` // "fcfs" | "nonpreemptive" | "preemptive"
	Power         PowerConfig `json:"power"`
	CostPerServer float64     `json:"cost_per_server,omitempty"`
	// Availability sets the tier's steady-state server availability directly
	// (in (0,1]; 0 or absent means always up). Alternatively give MTBF and
	// MTTR (both, in seconds) and A = MTBF/(MTBF+MTTR) is derived; setting
	// both forms is an error.
	Availability float64        `json:"availability,omitempty"`
	MTBF         float64        `json:"mtbf,omitempty"`
	MTTR         float64        `json:"mttr,omitempty"`
	Demands      []DemandConfig `json:"demands"`
}

// DemandConfig describes the work one class brings to one tier.
type DemandConfig struct {
	Work float64 `json:"work"`
	CV2  float64 `json:"cv2"`
}

// PowerConfig selects and parameterizes a power model.
type PowerConfig struct {
	Type string `json:"type"` // "powerlaw" | "linear" | "table"
	// powerlaw fields
	Idle  float64 `json:"idle,omitempty"`
	Kappa float64 `json:"kappa,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	// linear fields (Idle shared)
	Slope float64 `json:"slope,omitempty"`
	// table fields (Idle shared)
	Speeds []float64 `json:"speeds,omitempty"`
	BusyW  []float64 `json:"busy_watts,omitempty"`
}

// ClassConfig describes one customer class.
type ClassConfig struct {
	Name            string  `json:"name"`
	Lambda          float64 `json:"lambda"`
	MaxMeanDelay    float64 `json:"max_mean_delay,omitempty"`
	PercentileDelay float64 `json:"percentile_delay,omitempty"`
	Percentile      float64 `json:"percentile,omitempty"`
	PricePerRequest float64 `json:"price_per_request,omitempty"`
}

// parseDiscipline maps a config string to a queueing discipline.
func parseDiscipline(s string) (queueing.Discipline, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "nonpreemptive", "non-preemptive", "np":
		return queueing.NonPreemptive, nil
	case "fcfs", "fifo":
		return queueing.FCFS, nil
	case "preemptive", "preemptive-resume", "pr":
		return queueing.PreemptiveResume, nil
	default:
		return 0, fmt.Errorf("cluster: unknown discipline %q", s)
	}
}

// buildPower constructs the power model a PowerConfig describes.
func buildPower(pc PowerConfig) (power.Model, error) {
	switch strings.ToLower(strings.TrimSpace(pc.Type)) {
	case "", "powerlaw", "power-law":
		gamma := pc.Gamma
		if gamma == 0 {
			gamma = 3 // classic cubic DVFS default
		}
		return power.NewPowerLaw(pc.Idle, pc.Kappa, gamma)
	case "linear":
		if pc.Idle < 0 || pc.Slope < 0 {
			return nil, fmt.Errorf("cluster: negative linear power coefficients idle=%g slope=%g", pc.Idle, pc.Slope)
		}
		return power.Linear{Idle: pc.Idle, Slope: pc.Slope}, nil
	case "table":
		return power.NewTable(pc.Idle, pc.Speeds, pc.BusyW)
	default:
		return nil, fmt.Errorf("cluster: unknown power model type %q", pc.Type)
	}
}

// Build materializes and validates the in-memory cluster the config
// describes.
func (cfg Config) Build() (*Cluster, error) {
	c := &Cluster{
		Tiers:   make([]*Tier, len(cfg.Tiers)),
		Classes: make([]Class, len(cfg.Classes)),
		Routes:  cfg.Routes,
	}
	for i, tc := range cfg.Tiers {
		d, err := parseDiscipline(tc.Discipline)
		if err != nil {
			return nil, fmt.Errorf("tier %q: %w", tc.Name, err)
		}
		pm, err := buildPower(tc.Power)
		if err != nil {
			return nil, fmt.Errorf("tier %q: %w", tc.Name, err)
		}
		demands := make([]queueing.Demand, len(tc.Demands))
		for k, dc := range tc.Demands {
			demands[k] = queueing.Demand{Work: dc.Work, CV2: dc.CV2}
		}
		avail := tc.Availability
		if tc.MTBF != 0 || tc.MTTR != 0 {
			if avail != 0 {
				return nil, fmt.Errorf("tier %q: give availability or mtbf/mttr, not both", tc.Name)
			}
			avail, err = queueing.Availability(tc.MTBF, tc.MTTR)
			if err != nil {
				return nil, fmt.Errorf("tier %q: %w", tc.Name, err)
			}
		}
		c.Tiers[i] = &Tier{
			Name: tc.Name, Servers: tc.Servers, Speed: tc.Speed,
			MinSpeed: tc.MinSpeed, MaxSpeed: tc.MaxSpeed,
			Discipline: d, Power: pm,
			CostPerServer: tc.CostPerServer, Availability: avail,
			Demands: demands,
		}
	}
	if cfg.Routing != nil {
		c.Routing = make([]*queueing.ClassRouting, len(cfg.Routing))
		for i, rc := range cfg.Routing {
			if rc == nil {
				continue
			}
			c.Routing[i] = &queueing.ClassRouting{Entry: rc.Entry, Next: rc.Next}
		}
	}
	for i, cc := range cfg.Classes {
		c.Classes[i] = Class{
			Name:   cc.Name,
			Lambda: cc.Lambda,
			SLA: SLA{
				MaxMeanDelay:    cc.MaxMeanDelay,
				PercentileDelay: cc.PercentileDelay,
				Percentile:      cc.Percentile,
				PricePerRequest: cc.PricePerRequest,
			},
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseConfig decodes a JSON cluster config and builds it.
func ParseConfig(data []byte) (*Cluster, error) {
	var cfg Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("cluster: parsing config: %w", err)
	}
	return cfg.Build()
}
