package live

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// ErrTooManyKeys is returned by Lock when ManagerConfig.MaxKeys is set
// and creating one more lock key would exceed it. Inbound traffic for
// keys beyond the limit is dropped (counted, not created).
var ErrTooManyKeys = errors.New("live: manager key limit reached")

// ErrEmptyKey is returned by Lock, LockFence and RestartKey for the key
// "": it names no lock (a frame without a key field is not addressed to
// any), so the Manager never creates an instance for it.
var ErrEmptyKey = errors.New("live: the empty string is not a lock key")

// ManagerConfig parameterizes one node's lock service.
type ManagerConfig struct {
	// ID is this node's identity in [0, N), shared by every key's DME
	// instance; node 0 mints each key's initial token.
	ID int
	// N is the cluster size.
	N int
	// Transport is the single shared endpoint all keys multiplex over —
	// typically a middleware chain (counting, fault injection) whose
	// layers then observe the merged keyed stream. The Manager owns its
	// handler slot and closes it on Close.
	Transport transport.Transport
	// Factory builds one key's protocol state machine; it is invoked
	// once per key (per incarnation), so every key runs an independent
	// instance of the same algorithm.
	Factory Factory
	// Algo optionally names the algorithm for display surfaces
	// (/statusz); it does not affect the protocol.
	Algo string
	// MaxKeys bounds the number of live keys (0 = unlimited): Lock on a
	// fresh key beyond the bound fails with ErrTooManyKeys, and inbound
	// traffic for fresh keys is dropped. A guard against unbounded state
	// from misbehaving peers.
	MaxKeys int
	// Seed has no effect: no protocol step draws randomness, so a key's
	// engine has no random stream to seed.
	//
	// Deprecated: it stays only because the benchmark harness sets it.
	Seed uint64
	// Logger, when non-nil, receives each key's structured
	// protocol-transition logs, annotated with a "lockkey" attribute:
	// arbiter changes, dispatches and recovery actions at Info level,
	// high-frequency events (token passes, request forwarding) at Debug.
	// It joins the metrics and tracing observers in the fan-out handed
	// to Factory, so it composes with any observer the factory itself
	// installs.
	Logger *slog.Logger
	// Metrics, when non-nil, receives the manager-level metrics
	// (manager_keys_active, manager_keys_created_total, ...). Per-key
	// protocol and traffic metrics live in per-key registries, exported
	// together — with a key label — by AdminHandler's /metrics.
	Metrics *telemetry.Registry
	// TraceDepth sizes each key's ring buffer of recent event records —
	// protocol transitions and the lock lifecycle (Node.Trace, the
	// /debug/trace endpoint). 0 means DefaultTraceDepth; negative
	// disables it.
	TraceDepth int
	// Tracer, when non-nil, is the shared request-trace collector every
	// key's node records into: every Lock/LockFence call mints a trace
	// ID and accumulates records from enqueue through grant to release,
	// including the protocol's own (batch inclusion, token hops). Spans
	// carry the key, so one collector serves the whole service; share
	// it across a cluster's Managers so each trace assembles in one
	// place. Nil disables request tracing at zero cost on the lock path.
	Tracer *reqtrace.Collector
	// FlightRec, when non-nil, is the shared flight recorder every key's
	// node logs its lock lifecycle (enqueue, grant, release) and every
	// protocol transition into; pair it with FlightRec.Middleware() on
	// the shared Transport so the capture also holds the keyed wire
	// traffic, making it replayable by reqtrace.Replay / `mutexsim
	// replay`.
	FlightRec *reqtrace.Recorder
}

// Manager is one node's distributed lock service, the only live shape a
// process builds: one DME instance per named lock key — a single lock is
// a Manager with one key — all multiplexed over a single transport.
// Keys are created lazily — by the first local Lock, or by the first
// message a peer sends for the key — and each carries its own protocol
// state machine (with its own run-to-completion executor — see the
// Node docs), telemetry registry, and incarnation counter. All methods
// are safe for concurrent use.
//
// Frames reach the keys through one handler on the shared transport:
// the frame's key selects the key's engine in one key table, created on
// the key's first frame, and the engine sends with its key tagged on. A
// lookup never waits; only creation, RestartKey and Close serialize.
//
// Crashes have one mechanism at each scale. RestartKey crash-restarts
// one key in place; the new incarnation rejoins without re-minting
// protocol state. A whole-node crash is Close — it closes every key's
// engine and the shared endpoint — followed by a fresh NewManager on the
// reconnected endpoint. The rebuilt node remembers nothing: its keys
// start again at incarnation 1, so a rebuilt node 0 mints each key's
// initial token a second time and §6 recovery has to retire the twin.
// Closing that gap takes a durable record of epoch, fence and
// incarnation (an open ROADMAP item), not a configuration flag.
type Manager struct {
	cfg   ManagerConfig
	start time.Time

	// keys maps each live key to its *instance. Lookups are one
	// lock-free Load; every write (creation, RestartKey, Close) holds mu,
	// which also guards nkeys, the MaxKeys count.
	keys   sync.Map
	mu     sync.Mutex
	nkeys  int
	closed atomic.Bool

	reg           *telemetry.Registry
	keysActive    *telemetry.Gauge
	keysCreated   *telemetry.Counter
	remoteCreates *telemetry.Counter
	keyRestarts   *telemetry.Counter
	keyLimitHits  *telemetry.Counter
}

// instance is one key's state: the live node of the key's DME group plus
// the bookkeeping the Manager layers on top.
type instance struct {
	key         string
	incarnation uint64
	node        *Node
	reg         *telemetry.Registry
}

// NewManager builds the service. No keys exist yet; the first Lock (or
// the first keyed message from a peer) creates them.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Transport == nil {
		return nil, errors.New("live: manager config needs a transport")
	}
	if cfg.Transport.Self() != cfg.ID {
		return nil, fmt.Errorf("live: transport self %d does not match manager id %d",
			cfg.Transport.Self(), cfg.ID)
	}
	if cfg.Factory == nil {
		return nil, errors.New("live: manager config needs a Factory (see registry.CoreLiveFactory)")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &Manager{
		cfg:   cfg,
		start: time.Now(),
		reg:   reg,
		keysActive: reg.Gauge("manager_keys_active",
			"lock keys currently live on this node"),
		keysCreated: reg.Counter("manager_keys_created_total",
			"lock key instances created (local Lock or remote traffic)"),
		remoteCreates: reg.Counter("manager_remote_key_creates_total",
			"lock keys created by a peer's message rather than a local Lock"),
		keyRestarts: reg.Counter("manager_key_restarts_total",
			"per-key instance restarts (new incarnations)"),
		keyLimitHits: reg.Counter("manager_key_limit_rejections_total",
			"key creations refused by the MaxKeys bound"),
	}
	cfg.Transport.SetHandler(m.deliver)
	return m, nil
}

// ID returns the node identity shared by every key's instance.
func (m *Manager) ID() int { return m.cfg.ID }

// Metrics returns the manager-level registry (Config.Metrics or the
// private one). Per-key registries are exported via AdminHandler.
func (m *Manager) Metrics() *telemetry.Registry { return m.reg }

// Requests returns the shared request-trace collector from
// ManagerConfig.Tracer, or nil when request tracing is disabled.
func (m *Manager) Requests() *reqtrace.Collector { return m.cfg.Tracer }

// deliver is the shared transport's handler. A frame goes to its key's
// engine; a peer's first frame for a key this node has never locked
// creates the key's engine, so the protocol (token routing, arbiter
// election, recovery) has all N participants. A frame that creates
// nothing — no key, MaxKeys reached, a closed manager — is dropped,
// which the protocol tolerates as loss. The engine runs outside the
// table's lock: its step may run to completion on this goroutine.
func (m *Manager) deliver(from dme.NodeID, msg dme.Message) {
	msg, key := wire.SplitKey(msg)
	if inst, err := m.instanceFor(key, true); err == nil {
		inst.node.deliver(from, msg)
	}
}

// instanceFor returns key's live instance, creating it if needed.
// remote marks creations triggered by peer traffic rather than a local
// Lock (metrics only). An instance is stored in the table only once
// built, so deliver never finds one that cannot take a frame.
func (m *Manager) instanceFor(key string, remote bool) (*instance, error) {
	if inst := m.lookup(key); inst != nil {
		return inst, nil
	}
	if key == "" {
		return nil, ErrEmptyKey
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Rechecked under mu: another creator, or a RestartKey, may have
	// stored the key while this one waited.
	if inst := m.lookup(key); inst != nil {
		return inst, nil
	}
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if m.cfg.MaxKeys > 0 && m.nkeys >= m.cfg.MaxKeys {
		m.keyLimitHits.Inc()
		return nil, fmt.Errorf("%w (max %d, creating %q)", ErrTooManyKeys, m.cfg.MaxKeys, key)
	}
	inst, err := m.buildInstance(key, telemetry.NewRegistry(), 1)
	if err != nil {
		return nil, err
	}
	m.keys.Store(key, inst)
	m.nkeys++
	m.keysActive.Set(int64(m.nkeys))
	m.keysCreated.Inc()
	if remote {
		m.remoteCreates.Inc()
	}
	return inst, nil
}

// buildInstance assembles one key incarnation: the key's live node,
// counting its traffic into the key's registry. Callers hold mu.
func (m *Manager) buildInstance(key string, reg *telemetry.Registry, incarnation uint64) (*instance, error) {
	var logger *slog.Logger
	if m.cfg.Logger != nil {
		logger = m.cfg.Logger.With("lockkey", key)
	}
	node, err := newNode(config{
		ID:         m.cfg.ID,
		N:          m.cfg.N,
		Transport:  m.cfg.Transport,
		Factory:    m.cfg.Factory,
		Logger:     logger,
		Metrics:    reg,
		TraceDepth: m.cfg.TraceDepth,
		Key:        key,
		Tracer:     m.cfg.Tracer,
		FlightRec:  m.cfg.FlightRec,
		// A restarted incarnation rejoins the key's running group; it
		// must not re-mint initial protocol state (node 0's token).
		Rejoin: incarnation > 1,
	})
	if err != nil {
		return nil, fmt.Errorf("live: key %q: %w", key, err)
	}
	return &instance{key: key, incarnation: incarnation, node: node, reg: reg}, nil
}

// lookup returns key's instance without creating it: one lock-free Load.
func (m *Manager) lookup(key string) *instance {
	if v, ok := m.keys.Load(key); ok {
		return v.(*instance)
	}
	return nil
}

// Lock acquires the named distributed lock, creating the key's DME
// instance on first use. It blocks until granted or ctx is done.
func (m *Manager) Lock(ctx context.Context, key string) error {
	_, err := m.LockFence(ctx, key)
	return err
}

// LockFence is Lock returning the grant's fencing token for key (see
// Node.LockFence; fences are per-key sequences). The call is a LockFunc
// request with a parked caller, so it lives as LockFunc requests do: a
// RestartKey reissues it on the key's next incarnation, in its original
// order, and it returns ErrClosed only when the Manager closes.
func (m *Manager) LockFence(ctx context.Context, key string) (uint64, error) {
	inst, err := m.instanceFor(key, false)
	if err != nil {
		return 0, err
	}
	p := newParker()
	m.LockFunc(key, p.grant)
	// The key's registry outlives its incarnations, and so does this
	// counter: a cancel counts where the request is, restarted or not.
	return p.wait(ctx, inst.node.metrics.lockCancels)
}

// LockFunc queues a request for the named lock and returns at once; the
// request's outcome goes to grant: a grant on the key's executor, an
// error on an unspecified goroutine with no lock of the key held (see
// GrantFunc for what grant may do in each). A grant the callback
// declines is released on the spot. If the key's instance is restarted
// before the grant, the request is reissued on the next incarnation;
// grant hears ErrClosed only when the Manager closes, and ErrEmptyKey
// or ErrTooManyKeys when the key cannot be created. A caller that binds
// grant once, as the session tier binds one per key queue, makes the
// request allocate nothing.
//
// Nothing waits for the grant: no goroutine parks between the request
// and its grant, and the grant is handed over by whichever goroutine
// ran the protocol step that produced it.
func (m *Manager) LockFunc(key string, grant GrantFunc) {
	if inst := m.lookup(key); inst != nil && inst.node.lockFunc(grant) {
		return
	}
	// The key is new, or mid-restart. Creating it may wait on mu, which
	// RestartKey holds while it waits for the old incarnation's executor
	// — perhaps the very step this call was issued from — so the wait
	// gets a goroutine of its own.
	go m.relock(key, grant)
}

// relock is LockFunc's slow path: it queues the request on key's
// current instance, creating it if needed, or ends it with the error
// that prevents that.
func (m *Manager) relock(key string, grant GrantFunc) {
	for {
		inst, err := m.instanceFor(key, false)
		if err != nil {
			grant(0, err)
			return
		}
		if inst.node.lockFunc(grant) {
			return
		}
		// Closed after the lookup: RestartKey has taken it out of the
		// table, so the next lookup waits for its replacement.
	}
}

// TryLockContext acquires the named lock only if it is granted before
// ctx is done: (true, nil) on acquisition, (false, nil) on timeout or
// cancellation, (false, err) for real failures.
func (m *Manager) TryLockContext(ctx context.Context, key string) (bool, error) {
	err := m.Lock(ctx, key)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return false, nil
	default:
		return false, err
	}
}

// Unlock releases the named lock acquired by Lock. Unlocking a key that
// is not held panics, mirroring sync.Mutex (and Node.Unlock) — except
// after Close: a holder unlocking while the whole service tears down is
// a normal shutdown interleaving (Close already released every key's
// node), and panicking in each holder's goroutine then helps nobody.
func (m *Manager) Unlock(key string) {
	inst := m.lookup(key)
	if inst == nil {
		if m.closed.Load() {
			return
		}
		panic(fmt.Sprintf("live: Unlock of lock key %q that is not held", key))
	}
	inst.node.Unlock()
}

// Node returns the current live node of key's DME instance, or nil if
// the key does not exist on this node (or is in the middle of a
// RestartKey). The pointer is current only until the key's next
// restart; introspection and tests use it.
func (m *Manager) Node(key string) *Node {
	if inst := m.lookup(key); inst != nil {
		return inst.node
	}
	return nil
}

// Registry returns key's telemetry registry (protocol metrics and the
// per-key traffic tallies), or nil if the key does not exist (or is in
// the middle of a RestartKey). Registries survive restarts, so counters
// are cumulative across incarnations.
func (m *Manager) Registry(key string) *telemetry.Registry {
	if inst := m.lookup(key); inst != nil {
		return inst.reg
	}
	return nil
}

// Keys returns the sorted live lock keys.
func (m *Manager) Keys() []string {
	var keys []string
	for _, inst := range m.snapshotInstances() {
		keys = append(keys, inst.key)
	}
	return keys
}

// KeyStat is one key's service-level summary, assembled from the key's
// cumulative registry (so it spans incarnations).
type KeyStat struct {
	Key         string  `json:"key"`
	Incarnation uint64  `json:"incarnation"`
	Granted     uint64  `json:"granted"`
	Released    uint64  `json:"released"`
	MsgsSent    uint64  `json:"msgs_sent"`
	MsgsRecv    uint64  `json:"msgs_received"`
	WaitP50     float64 `json:"wait_p50_seconds"`
	WaitP99     float64 `json:"wait_p99_seconds"`
}

// KeyStats returns every live key's summary, sorted by key.
func (m *Manager) KeyStats() []KeyStat {
	var out []KeyStat
	for _, inst := range m.snapshotInstances() {
		snap := inst.reg.Snapshot()
		st := KeyStat{
			Key:         inst.key,
			Incarnation: inst.incarnation,
			Granted:     snap.Counters["cs_granted_total"],
			Released:    snap.Counters["cs_released_total"],
		}
		for _, v := range snap.Kinds["transport_sent_total"] {
			st.MsgsSent += v
		}
		for _, v := range snap.Kinds["transport_received_total"] {
			st.MsgsRecv += v
		}
		if h, ok := snap.Histograms["lock_wait_seconds"]; ok {
			st.WaitP50, st.WaitP99 = h.P50, h.P99
		}
		out = append(out, st)
	}
	return out
}

// SumCounter totals one counter (by name) across every key's registry —
// the aggregate view of a per-key protocol observable.
func (m *Manager) SumCounter(name string) uint64 {
	var sum uint64
	for _, st := range m.snapshotInstances() {
		sum += st.reg.Snapshot().Counters[name]
	}
	return sum
}

// MergedHistogram merges one histogram (by name) across every key's
// registry; per-key histograms share bucket layouts, so the merge is
// exact. Quantiles of the merged distribution come with it.
func (m *Manager) MergedHistogram(name string) telemetry.HistogramSnapshot {
	var snaps []telemetry.HistogramSnapshot
	for _, inst := range m.snapshotInstances() {
		if h, ok := inst.reg.Snapshot().Histograms[name]; ok {
			snaps = append(snaps, h)
		}
	}
	return telemetry.MergeHistograms(snaps...)
}

// snapshotInstances copies the current instance set out of the table,
// sorted by key.
func (m *Manager) snapshotInstances() []*instance {
	var out []*instance
	m.keys.Range(func(_, v any) bool {
		out = append(out, v.(*instance))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Stats sums grants and releases over every key (cumulative across
// incarnations), the multi-key analogue of Node.Stats.
func (m *Manager) Stats() (granted, released uint64) {
	for _, st := range m.KeyStats() {
		granted += st.Granted
		released += st.Released
	}
	return granted, released
}

// RestartKey crash-restarts one key's instance in place: the old node is
// closed (its waiting requests, parked LockFence calls included, are
// reissued in their order once mu is released) and a fresh incarnation
// joins the key's DME group, keeping the cumulative registry. The rest
// of the cluster recovers the key via the §6 protocol when the old
// incarnation held protocol state. Restarting a key that does not exist
// is an error.
func (m *Manager) RestartKey(key string) (*Node, error) {
	if key == "" {
		return nil, ErrEmptyKey
	}
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	old := m.lookup(key)
	if old == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("live: restart of unknown lock key %q", key)
	}
	// Deleted before the close: a frame for the key then misses, takes
	// the creation path and waits on mu for the new incarnation; one
	// that found the old one is dropped.
	m.keys.Delete(key)
	pending := old.node.shutdown()
	inst, err := m.buildInstance(key, old.reg, old.incarnation+1)
	if err != nil {
		m.nkeys--
		m.keysActive.Set(int64(m.nkeys))
	} else {
		m.keys.Store(key, inst)
		m.keyRestarts.Inc()
	}
	m.mu.Unlock()
	for _, grant := range pending {
		m.LockFunc(key, grant)
	}
	if err != nil {
		return nil, err
	}
	return inst.node, nil
}

// Close shuts the whole service down: every key's node stops, then the
// shared transport closes. Idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return nil
	}
	// Set under mu: a creator that waited on it sees closed and stores
	// nothing after the sweep.
	m.closed.Store(true)
	insts := m.snapshotInstances()
	for _, inst := range insts {
		m.keys.Delete(inst.key)
	}
	m.nkeys = 0
	m.keysActive.Set(0)
	m.mu.Unlock()
	var firstErr error
	for _, inst := range insts {
		if err := inst.node.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := m.cfg.Transport.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
