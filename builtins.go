package lowsensing

import (
	"cmp"
	"fmt"
	"os"

	"lowsensing/cluster"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/protocols"
)

// The built-in kinds register through exactly the same path as user
// components: there is no privileged spec→constructor switch anywhere, so a
// kind registered by an importing package resolves everywhere the built-ins
// do (ParseScenario, ParseSweepSpec, sweeps, both CLIs).

func init() {
	registerBuiltinArrivals()
	registerBuiltinProtocols()
	registerBuiltinJammers()
	registerBuiltinRouters()
	registerBuiltinChurn()
	registerBuiltinFaults()
}

// rejectParams refuses Params on a built-in kind: built-ins take their
// typed spec fields, so a params map there is a misconfiguration that
// would otherwise run silently with the defaults.
func rejectParams(kind string, params map[string]float64) error {
	if len(params) == 0 {
		return nil
	}
	return fmt.Errorf("lowsensing: built-in kind %q takes no params; built-ins take their typed fields", kind)
}

// typedArrivals, typedProtocol, and typedJammer wrap a built-in kind's
// factory so it first rejects Params.
func typedArrivals(f ArrivalsFactory) ArrivalsFactory {
	return func(a ArrivalsSpec, seed uint64) (ArrivalSource, error) {
		if err := rejectParams(a.Kind, a.Params); err != nil {
			return nil, err
		}
		return f(a, seed)
	}
}

func typedProtocol(f ProtocolFactory) ProtocolFactory {
	return func(p ProtocolSpec) (StationFactory, error) {
		if err := rejectParams(cmp.Or(p.Kind, ProtocolLSB), p.Params); err != nil {
			return nil, err
		}
		return f(p)
	}
}

func typedJammer(f JammerFactory) JammerFactory {
	return func(j JammerSpec, seed uint64) (Jammer, error) {
		if err := rejectParams(j.Kind, j.Params); err != nil {
			return nil, err
		}
		return f(j, seed)
	}
}

func registerBuiltinArrivals() {
	RegisterArrivals(ArrivalsBatch,
		"n packets injected at slot 0 — the classic batch instance",
		typedArrivals(func(a ArrivalsSpec, _ uint64) (ArrivalSource, error) {
			if a.N <= 0 {
				return nil, fmt.Errorf("lowsensing: batch size must be > 0, got %d", a.N)
			}
			return arrivals.NewBatch(a.N), nil
		}))
	RegisterArrivals(ArrivalsBernoulli,
		"one packet per slot with probability rate, stopping after n packets (n <= 0 unbounded)",
		typedArrivals(func(a ArrivalsSpec, seed uint64) (ArrivalSource, error) {
			return arrivals.NewBernoulli(a.Rate, a.N, seed)
		}))
	RegisterArrivals(ArrivalsPoisson,
		"Poisson(rate) packets per slot, stopping after n packets (n <= 0 unbounded)",
		typedArrivals(func(a ArrivalsSpec, seed uint64) (ArrivalSource, error) {
			return arrivals.NewPoisson(a.Rate, a.N, seed)
		}))
	RegisterArrivals(ArrivalsQueue,
		"adversarial-queuing bursts: floor(rate*granularity) packets at each of windows window starts",
		typedArrivals(func(a ArrivalsSpec, seed uint64) (ArrivalSource, error) {
			return arrivals.NewAQT(a.Granularity, a.Rate, a.Windows, arrivals.AQTBurst, seed)
		}))
	RegisterArrivals(ArrivalsFile,
		"replays a recorded slot/count trace from path",
		typedArrivals(func(a ArrivalsSpec, _ uint64) (ArrivalSource, error) {
			if a.Path == "" {
				return nil, fmt.Errorf("lowsensing: file arrivals need a path")
			}
			// Scenario.Validate constructs sources, so this runs while
			// parsing spec JSON; refuse non-regular files (FIFOs, devices)
			// whose open or read could block indefinitely.
			fi, err := os.Stat(a.Path)
			if err != nil {
				return nil, err
			}
			if !fi.Mode().IsRegular() {
				return nil, fmt.Errorf("lowsensing: file arrivals path %q is not a regular file", a.Path)
			}
			f, err := os.Open(a.Path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return arrivals.ParseTrace(f)
		}))
}

func registerBuiltinProtocols() {
	RegisterProtocol(ProtocolLSB,
		"LOW-SENSING BACKOFF, the paper's algorithm (config: c, w_min, k; zero config = defaults)",
		typedProtocol(func(p ProtocolSpec) (StationFactory, error) {
			cfg := p.Config
			if cfg == (Config{}) {
				cfg = DefaultConfig()
			}
			return core.NewFactory(cfg)
		}))
	RegisterProtocol(ProtocolBEB,
		"binary exponential backoff, the classic oblivious baseline",
		typedProtocol(func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewBEBFactory(2, 0)
		}))
	RegisterProtocol(ProtocolMWU,
		"full-sensing multiplicative weights: constant throughput, listens every slot",
		typedProtocol(func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewMWUFactory(protocols.DefaultMWUConfig())
		}))
	RegisterProtocol(ProtocolSawtooth,
		"fully oblivious sawtooth backoff baseline",
		typedProtocol(func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewSawtoothFactory(), nil
		}))
	RegisterProtocol(ProtocolAloha,
		"fixed-rate slotted ALOHA (send_prob: per-slot transmission probability)",
		typedProtocol(func(p ProtocolSpec) (StationFactory, error) {
			return protocols.NewAlohaFactory(p.SendProb)
		}))
	RegisterProtocol(ProtocolPoly,
		"polynomial backoff with window w0*(collisions+1)^alpha (defaults 2, 2)",
		typedProtocol(func(p ProtocolSpec) (StationFactory, error) {
			w0, alpha := p.W0, p.Alpha
			if w0 == 0 {
				w0 = 2
			}
			if alpha == 0 {
				alpha = 2
			}
			return protocols.NewPolyFactory(w0, alpha)
		}))
	RegisterProtocol(ProtocolGenie,
		"genie-aided ALOHA oracle that knows the exact backlog (throughput ceiling, not realizable)",
		typedProtocol(func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewGenieAlohaFactory(), nil
		}))
}

func registerBuiltinRouters() {
	RegisterRouter(RouterRandom,
		"assigns each packet to a uniformly random channel",
		func(_ RouterSpec, seed uint64) (Router, error) {
			return cluster.NewRandom(seed), nil
		})
	RegisterRouter(RouterRoundRobin,
		"cycles through channels 0..C-1 in arrival order",
		func(RouterSpec, uint64) (Router, error) {
			return cluster.NewRoundRobin(), nil
		})
	RegisterRouter(RouterLeastBacklog,
		"joins the channel with the fewest live packets (epoch-synchronized execution)",
		func(RouterSpec, uint64) (Router, error) {
			return cluster.NewLeastBacklog(), nil
		})
	RegisterRouter(RouterSticky,
		"hashes a flow key (id % flows; 0 = per-packet) to a fixed channel",
		func(r RouterSpec, seed uint64) (Router, error) {
			return cluster.NewSticky(seed, r.Flows), nil
		})
}

func registerBuiltinJammers() {
	RegisterJammer(JammerRandom,
		"jams each slot independently with probability rate, up to budget jams (0 = unbounded)",
		typedJammer(func(j JammerSpec, seed uint64) (Jammer, error) {
			return jamming.NewRandom(j.Rate, j.Budget, seed^0x6a)
		}))
	RegisterJammer(JammerBurst,
		"jams every slot in [from, to)",
		typedJammer(func(j JammerSpec, _ uint64) (Jammer, error) {
			return jamming.NewInterval(j.From, j.To)
		}))
	RegisterJammer(JammerReactive,
		"reactive adversary (paper 1.3): jams whenever packet target transmits, up to budget jams",
		typedJammer(func(j JammerSpec, _ uint64) (Jammer, error) {
			return jamming.NewReactiveTargeted(j.Target, j.Budget)
		}))
}
