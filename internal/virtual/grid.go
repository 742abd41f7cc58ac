// Package virtual implements the MicroGrid's virtualization layer (paper
// §2.2): the virtual Grid an application perceives. Applications are
// written against Process — the analog of the intercepted libc/Globus
// interface (gethostname, sockets, gettimeofday, memory allocation,
// compute) — and observe only virtual host names, virtual IPs and virtual
// time, regardless of the physical resources underneath.
//
// A Grid maps every virtual host onto a physical cpusched.Host. In
// emulation mode each virtual host's processes are governed by the
// Figure-4 CPU-fraction scheduler at fraction = vMIPS·rate/physMIPS, the
// network simulator runs with delays scaled by 1/rate and bandwidths by
// rate (so deliveries land at the correct *virtual* instants), and
// Gettimeofday returns rate-scaled time. In direct mode (rate 1, no
// controllers) the same application code runs at full speed on a model of
// the target hardware — that is the "physical grid" reference run the
// paper validates against.
package virtual

import (
	"fmt"

	"microgrid/internal/cpusched"
	"microgrid/internal/memmodel"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/vtime"
)

// HostConfig describes one virtual host.
type HostConfig struct {
	// Name is the virtual host name (e.g. "vm0.ucsd.edu").
	Name string
	// IP is the host's address on the virtual network.
	IP netsim.Addr
	// CPUSpeedMIPS is the virtual processor speed.
	CPUSpeedMIPS float64
	// MemoryBytes is the virtual memory capacity (0 = unlimited 4 GB).
	MemoryBytes int64
	// MappedPhysical names the physical host this virtual host runs on.
	MappedPhysical string
}

// PhysConfig describes one physical (emulation) machine.
type PhysConfig struct {
	Name         string
	CPUSpeedMIPS float64
	// Quantum is the MicroGrid scheduler quantum on this machine
	// (cpusched.DefaultQuantum when zero). Fig. 11 sweeps this.
	Quantum simcore.Duration
}

// Config assembles a virtual grid.
type Config struct {
	// Hosts are the virtual hosts.
	Hosts []HostConfig
	// Phys are the physical machines; every MappedPhysical must name one.
	Phys []PhysConfig
	// Rate is the simulation rate (virtual seconds per physical second).
	// Zero means "fastest feasible" as computed from the resource specs.
	Rate float64
	// Direct disables fraction controllers and time scaling: the grid
	// models the target hardware natively (the reference run). Direct
	// requires every virtual host to have a dedicated physical host at
	// least as fast as the virtual speed.
	Direct bool
	// SendOverheadOps and PerByteOps are the CPU cost charged to a
	// process per message and per payload byte (virtual-host ops).
	// Defaults: 8000 and 0.5.
	SendOverheadOps float64
	PerByteOps      float64
	// FlowNetwork switches the network simulator to analytic flow-level
	// modeling: far fewer events, no congestion fidelity (the
	// speed-vs-fidelity axis of the paper's future work).
	FlowNetwork bool
	// StaggerSpread offsets each host's scheduler-daemon start within its
	// duty cycle, modeling daemons launched at different moments on
	// different machines: 0 (the default) is a perfectly coordinated
	// deployment with phase-aligned windows; 1 spreads starts across the
	// whole cycle (worst case). Staggered phases reproduce the
	// quantum-dependent modeling errors of Fig. 11.
	StaggerSpread float64
	// AssignEngines, when set, partitions the grid across PDES shards: it
	// is consulted after the topology is wired and returns, per netsim
	// node name, the engine that node — and the virtual host attached to
	// it — lives on. Unlisted nodes stay on the grid's engine. Physical
	// hosts inherit the engine of the virtual hosts mapped onto them; a
	// physical host shared by virtual hosts on different engines is an
	// error.
	AssignEngines func(nw *netsim.Network) map[string]*simcore.Engine
	// Lazy defers per-host materialization — the clock, CPU scheduler
	// task, memory limiter, and physical host — to the first Host()
	// touch. The topology is still wired in full (routing needs every
	// node), but a grid declaring 100k hosts allocates host runtime
	// state only for the hosts a workload actually touches. Lazy
	// requires Direct mode: fraction controllers are placed at build
	// time and would defeat the point. Host configurations are still
	// validated at build, so Host() cannot fail later.
	Lazy bool
}

// Grid is a running virtual grid.
type Grid struct {
	eng    *simcore.Engine
	clock  *vtime.Clock
	vnet   *netsim.Network
	rate   float64
	direct bool

	// The host table. decl is every declared host in declaration order
	// and physOf its physical machine's index in physCfgs. declOf and
	// hosts are keyed by netsim's compact node index: a node's position
	// in decl (-1 for routers) and its runtime state (nil until
	// materialized). Name and address lookups go through the network's
	// own node maps. live lists the materialized hosts in
	// materialization order, so sweeps over them cost the working set,
	// not the declaration.
	decl     []HostConfig
	physOf   []int32
	declOf   []int32
	hosts    []*Host
	live     []*Host
	physCfgs []PhysConfig
	phys     map[string]*cpusched.Host
	// controllers holds one MicroGrid scheduler daemon per physical host
	// (emulated grids only).
	controllers map[string]*cpusched.MultiController
	stagger     float64

	sendOverheadOps float64
	perByteOps      float64

	// OnCrash and OnReboot, when set, observe host state transitions made
	// by Host.Crash/Host.Reboot. The assembled system (internal/core) uses
	// them to tear down and restart middleware daemons — a crashed host's
	// gatekeeper closes and its GIS record disappears; a rebooted host
	// re-registers.
	OnCrash  func(*Host)
	OnReboot func(*Host)
}

// Host is one virtual host.
type Host struct {
	grid *Grid
	// eng is the PDES shard this host's processes run on (the grid's
	// engine unless Config.AssignEngines placed it elsewhere); clock is
	// the host-local view of virtual time on that engine.
	eng   *simcore.Engine
	clock *vtime.Clock
	// Name and IP are what applications observe.
	Name string
	IP   netsim.Addr
	// CPUSpeedMIPS is the virtual processor speed.
	CPUSpeedMIPS float64
	// Node is the host's attachment point in the (scaled) network
	// simulator; it must be wired by the topology builder before use.
	Node *netsim.Node
	// Mem enforces the host's memory capacity.
	Mem *memmodel.Limiter
	// Phys is the physical machine hosting this virtual host.
	Phys *cpusched.Host
	// Fraction is the physical CPU share allocated (1 in direct mode).
	Fraction float64

	task *cpusched.Task
	job  *cpusched.ControlledJob
	// cpu serializes the single virtual CPU among this host's processes.
	cpu    *simcore.Mutex
	nprocs int
	// down marks a crashed host (see Crash/Reboot in crash.go); procs
	// tracks resident processes so a crash can kill them.
	down  bool
	procs []*Process
}

// NewGrid builds the virtual grid runtime. The caller supplies the virtual
// network topology through wire: it receives the scaled netsim.Network and
// must create one netsim node per virtual host (matching Name and IP) plus
// any routers/links. Link parameters passed to scale() are converted from
// virtual to engine units.
//
// Every declared host is validated here, so materializing one later
// cannot fail. An eager grid then materializes every host in declaration
// order; a lazy one waits for each host's first touch.
func NewGrid(eng *simcore.Engine, cfg Config, wire func(nw *netsim.Network, scale func(netsim.LinkConfig) netsim.LinkConfig) error) (*Grid, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("virtual: no hosts configured")
	}
	if cfg.Lazy && !cfg.Direct {
		return nil, fmt.Errorf("virtual: lazy host materialization requires direct mode")
	}
	physIdx := make(map[string]int32, len(cfg.Phys))
	for i, pc := range cfg.Phys {
		if pc.CPUSpeedMIPS <= 0 {
			return nil, fmt.Errorf("virtual: physical host %s needs positive speed", pc.Name)
		}
		if _, dup := physIdx[pc.Name]; dup {
			return nil, fmt.Errorf("virtual: physical host %s declared twice", pc.Name)
		}
		physIdx[pc.Name] = int32(i)
	}

	// Direct mode runs at rate 1 whatever cfg.Rate says, so it skips
	// the feasibility pass; the host loop below still rejects a host
	// mapped to an unknown physical machine, with the same message.
	rate := 1.0
	if !cfg.Direct {
		rate = cfg.Rate
	}
	if rate == 0 {
		// The coherent rate is bounded by each physical machine's
		// capacity against the *sum* of the virtual CPUs mapped onto it
		// (several virtual hosts may share one machine).
		demand := map[string]float64{}
		for _, h := range cfg.Hosts {
			if _, ok := physIdx[h.MappedPhysical]; !ok {
				return nil, fmt.Errorf("virtual: host %s maps to unknown physical %q", h.Name, h.MappedPhysical)
			}
			demand[h.MappedPhysical] += h.CPUSpeedMIPS
		}
		var rr []vtime.ResourceRate
		for name, d := range demand {
			rr = append(rr, vtime.ResourceRate{
				Resource: name, Kind: "cpu",
				Physical: cfg.Phys[physIdx[name]].CPUSpeedMIPS, Virtual: d,
			})
		}
		rate, _ = vtime.MaxFeasibleRate(rr)
		if rate > 1 {
			rate = 1
		}
	}

	g := &Grid{
		eng:             eng,
		clock:           vtime.NewClock(eng, rate),
		rate:            rate,
		direct:          cfg.Direct,
		phys:            make(map[string]*cpusched.Host),
		controllers:     make(map[string]*cpusched.MultiController),
		stagger:         cfg.StaggerSpread,
		sendOverheadOps: cfg.SendOverheadOps,
		perByteOps:      cfg.PerByteOps,
	}
	if g.sendOverheadOps == 0 {
		g.sendOverheadOps = 8000
	}
	if g.perByteOps == 0 {
		g.perByteOps = 0.5
	}

	g.vnet = netsim.New(eng)
	if err := wire(g.vnet, g.ScaleLink); err != nil {
		return nil, err
	}
	g.vnet.ComputeRoutes()
	g.vnet.SetFlowMode(cfg.FlowNetwork)

	if cfg.AssignEngines != nil {
		for name, e := range cfg.AssignEngines(g.vnet) {
			nd := g.vnet.Node(name)
			if nd == nil {
				return nil, fmt.Errorf("virtual: engine assignment names unknown node %q", name)
			}
			g.vnet.SetNodeEngine(nd, e)
		}
	}

	// Validate every declared host against the wired topology and fill
	// the table. A physical host lives on the engine of the virtual hosts
	// mapped onto it, so its CPU scheduler shares their shard.
	g.decl, g.physCfgs = cfg.Hosts, cfg.Phys
	g.physOf = make([]int32, len(cfg.Hosts))
	g.declOf = make([]int32, g.vnet.NodeCount())
	for i := range g.declOf {
		g.declOf[i] = -1
	}
	g.hosts = make([]*Host, len(g.declOf))
	physEng := make([]*simcore.Engine, len(cfg.Phys))
	for i, hc := range cfg.Hosts {
		if hc.CPUSpeedMIPS <= 0 {
			return nil, fmt.Errorf("virtual: host %s needs positive CPU speed", hc.Name)
		}
		pi, ok := physIdx[hc.MappedPhysical]
		if !ok {
			return nil, fmt.Errorf("virtual: host %s maps to unknown physical %q", hc.Name, hc.MappedPhysical)
		}
		pc := cfg.Phys[pi]
		if cfg.Direct && hc.CPUSpeedMIPS > pc.CPUSpeedMIPS+1e-9 {
			return nil, fmt.Errorf("virtual: direct mode: host %s (%.0f MIPS) exceeds physical %s (%.0f MIPS)",
				hc.Name, hc.CPUSpeedMIPS, pc.Name, pc.CPUSpeedMIPS)
		}
		node := g.vnet.Node(hc.Name)
		if node == nil {
			return nil, fmt.Errorf("virtual: topology has no node for host %s", hc.Name)
		}
		if node.Addr != hc.IP {
			return nil, fmt.Errorf("virtual: node %s has address %v, config says %v", hc.Name, node.Addr, hc.IP)
		}
		if g.declOf[node.Index()] >= 0 {
			return nil, fmt.Errorf("virtual: host %s declared twice", hc.Name)
		}
		if e := physEng[pi]; e != nil && e != node.Engine() {
			return nil, fmt.Errorf("virtual: physical host %s is shared by virtual hosts on different PDES shards", pc.Name)
		}
		physEng[pi] = node.Engine()
		g.declOf[node.Index()] = int32(i)
		g.physOf[i] = pi
	}
	if cfg.Lazy {
		return g, nil
	}

	// Eager: every physical machine comes up, in declaration order (one
	// no virtual host maps onto stays on the grid's engine), then every
	// declared host materializes in declaration order.
	for pi, e := range physEng {
		if e == nil {
			e = eng
		}
		g.physHost(pi, e)
	}
	for _, hc := range cfg.Hosts {
		if _, err := g.materialize(g.vnet.Node(hc.Name)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ScaleLink converts a link specified in virtual units to engine (physical)
// units: delays stretch by 1/rate, bandwidths shrink by rate. In direct
// mode it is the identity.
func (g *Grid) ScaleLink(cfg netsim.LinkConfig) netsim.LinkConfig {
	if g.rate == 1 {
		return cfg
	}
	cfg.BandwidthBps *= g.rate
	cfg.Delay = simcore.Duration(float64(cfg.Delay) / g.rate)
	return cfg
}

// Engine returns the engine the grid runs on.
func (g *Grid) Engine() *simcore.Engine { return g.eng }

// Engine returns the PDES shard this host runs on.
func (h *Host) Engine() *simcore.Engine { return h.eng }

// Clock returns the host-local virtual clock (same rate grid-wide; bound
// to the host's engine so reads never cross shards).
func (h *Host) Clock() *vtime.Clock { return h.clock }

// Clock returns the grid's virtual clock.
func (g *Grid) Clock() *vtime.Clock { return g.clock }

// Rate returns the simulation rate.
func (g *Grid) Rate() float64 { return g.rate }

// MessageCost returns the per-message CPU model: the operations charged
// per send and per byte (Config's values, defaults filled in).
func (g *Grid) MessageCost() (sendOverheadOps, perByteOps float64) {
	return g.sendOverheadOps, g.perByteOps
}

// Network returns the (scaled) virtual network simulator.
func (g *Grid) Network() *netsim.Network { return g.vnet }

// Host returns the named virtual host, or nil. On a lazy grid the
// first touch materializes the host's runtime state (validated at
// build time, so materialization cannot fail).
func (g *Grid) Host(name string) *Host { return g.hostAt(g.vnet.Node(name)) }

// MaterializedHosts returns the hosts whose runtime state exists, in
// materialization order (declaration order on an eager grid); it never
// triggers materialization. The caller must not modify the slice.
func (g *Grid) MaterializedHosts() []*Host { return g.live }

// MaterializedCount reports how many declared hosts have runtime state.
func (g *Grid) MaterializedCount() int { return len(g.live) }

// DeclaredHosts reports the total declared host count, materialized or
// not.
func (g *Grid) DeclaredHosts() int { return len(g.decl) }

// declared reports whether nd is a declared virtual host's node (not a
// router, and not a node wired after the grid was built).
func (g *Grid) declared(nd *netsim.Node) bool {
	return nd != nil && nd.Index() < len(g.declOf) && g.declOf[nd.Index()] >= 0
}

// hostAt returns the virtual host attached at nd, materializing it on
// first touch, or nil when nd is not a declared host.
func (g *Grid) hostAt(nd *netsim.Node) *Host {
	if !g.declared(nd) {
		return nil
	}
	if h := g.hosts[nd.Index()]; h != nil {
		return h
	}
	// Only a lazy — hence direct-mode — grid reaches here, and a direct
	// host's materialization cannot fail.
	h, _ := g.materialize(nd)
	return h
}

// materialize builds the runtime state of the declared host at node:
// its physical CPU (created on the host's shard on first use), clock,
// CPU scheduler task and memory limiter, and on an emulated grid its
// CPU fraction under the physical machine's scheduler daemon.
func (g *Grid) materialize(node *netsim.Node) (*Host, error) {
	i := g.declOf[node.Index()]
	hc := &g.decl[i]
	heng := node.Engine()
	p := g.physHost(int(g.physOf[i]), heng)
	mem := hc.MemoryBytes
	if mem == 0 {
		mem = 4 << 30
	}
	h := &Host{
		grid:         g,
		eng:          heng,
		clock:        vtime.NewClock(heng, g.rate),
		Name:         hc.Name,
		IP:           hc.IP,
		CPUSpeedMIPS: hc.CPUSpeedMIPS,
		Node:         node,
		Mem:          memmodel.NewLimiter(mem),
		Phys:         p,
		Fraction:     1,
		cpu:          simcore.NewMutex(heng),
	}
	h.task = p.NewTask("vhost:" + hc.Name)
	if !g.direct {
		h.Fraction = hc.CPUSpeedMIPS * g.rate / p.SpeedMIPS()
		if h.Fraction > 1+1e-9 {
			return nil, fmt.Errorf("virtual: infeasible rate %.4g: host %s needs fraction %.3f of %s",
				g.rate, hc.Name, h.Fraction, p.Name)
		}
		job, err := g.controllerFor(p).AddJob(h.task, h.Fraction)
		if err != nil {
			return nil, fmt.Errorf("virtual: mapping %s onto %s: %w", hc.Name, p.Name, err)
		}
		h.job = job
	}
	g.hosts[node.Index()] = h
	g.live = append(g.live, h)
	return h, nil
}

// physHost returns physical machine pi, creating it on eng first.
func (g *Grid) physHost(pi int, eng *simcore.Engine) *cpusched.Host {
	pc := &g.physCfgs[pi]
	if p, ok := g.phys[pc.Name]; ok {
		return p
	}
	p := cpusched.NewHost(eng, pc.Name, pc.CPUSpeedMIPS, pc.Quantum)
	g.phys[pc.Name] = p
	return p
}

// PhysHost returns the named physical host, or nil (on a lazy grid, also
// for a machine no materialized host maps onto yet).
func (g *Grid) PhysHost(name string) *cpusched.Host { return g.phys[name] }

// Resolve is the gethostbyname analog: virtual host name (or dotted
// address) → virtual IP. Resolving a lazy host answers from its
// declaration without materializing it.
func (g *Grid) Resolve(name string) (netsim.Addr, error) {
	if nd := g.vnet.Node(name); g.declared(nd) {
		return nd.Addr, nil
	}
	if a, err := netsim.ParseAddr(name); err == nil && g.declared(g.vnet.NodeByAddr(a)) {
		return a, nil
	}
	return 0, fmt.Errorf("virtual: unknown host %q", name)
}

// HostByIP is the reverse mapping; a declared-but-untouched host
// materializes (callers hold a live connection to it, so it is about
// to be touched anyway).
func (g *Grid) HostByIP(a netsim.Addr) *Host { return g.hostAt(g.vnet.NodeByAddr(a)) }

// controllerFor returns — creating and spawning on demand — the MicroGrid
// scheduler daemon of a physical host. The daemon cycles on a fixed wall
// schedule even while its jobs are idle, exactly like the real scheduler:
// phase alignment across hosts is what makes virtual time advance
// coherently. Call StopControllers when the workload completes so the
// simulation can drain.
func (g *Grid) controllerFor(p *cpusched.Host) *cpusched.MultiController {
	if mc, ok := g.controllers[p.Name]; ok {
		return mc
	}
	mc := cpusched.NewMultiController(p)
	if g.stagger > 0 {
		// Offset daemons across machines with a low-discrepancy sequence,
		// spread over up to two quanta per unit of stagger (the typical
		// on/off cycle scale).
		frac := float64(len(g.controllers)) * 0.6180339887
		frac -= float64(int(frac))
		mc.StartDelay = simcore.Duration(g.stagger * frac * 2 * float64(mc.Quantum))
	}
	g.controllers[p.Name] = mc
	mc.Spawn()
	return mc
}

// StopControllers terminates every physical host's scheduler daemon.
// Call it when the workload has completed: the daemons cycle forever
// otherwise (by design — their fixed schedule is what keeps hosts
// phase-aligned), which would keep the simulation from draining.
func (g *Grid) StopControllers() {
	for _, mc := range g.controllers {
		mc.Terminate()
	}
}

// HostNames returns every declared virtual host name, materialized or
// not, in declaration order.
func (g *Grid) HostNames() []string {
	out := make([]string, len(g.decl))
	for i, hc := range g.decl {
		out[i] = hc.Name
	}
	return out
}
