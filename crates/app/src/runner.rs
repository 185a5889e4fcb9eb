//! The full-system benchmark runner.
//!
//! A [`Runner`] wires together the machine ([`sim`]), the NIC ([`nic`]),
//! the kernel connection path ([`tcp`]), one listen-socket implementation
//! ([`affinity_accept`]), the server application, and the client fleet,
//! and runs the discrete-event loop: packets arrive on rings, softirqs
//! drain them on the ring's core, tasks are woken and execute syscalls on
//! their cores, responses traverse the wire back to the clients.
//!
//! A run has a warmup phase and a measurement window; all counters
//! (throughput, idle time, perf counters, `lock_stat`, DProf, latency
//! distributions) cover only the window, mirroring the paper's
//! methodology of measuring at a discovered saturation rate (§6.2).

use crate::audit::{
    ClientAudit, CycleAudit, KernelAudit, ListenAudit, PacketAudit, RingAudit, RunAudit,
};
use crate::batch::BatchJob;
use crate::client::{CConnId, Clients};
use crate::evpool::PktSlab;
use crate::server::{STask, ServerKind, TaskRole};
use crate::workload::Workload;
use affinity_accept::{
    AcceptOutcome, AckOutcome, AffinityAccept, FineAccept, ListenConfig, ListenSocket, StockAccept,
    TwentyPolicy,
};
use metrics::lockstat::LockStat;
use metrics::{Histogram, PerfCounters};
use nic::packet::RingId;
use nic::{Nic, Packet, PacketKind, RxOutcome, Steering};
use sim::core_set::CoreSet;
use sim::fastmap::FastMap;
use sim::fingerprint::Fingerprint;
use sim::rng::SimRng;
use sim::time::{ms, us, Cycles, CYCLES_PER_SEC};
use sim::topology::{CoreId, Machine};
use sim::EventQueue;
use std::cell::RefCell;
use tcp::{ops, ConnId, ConnState, Kernel};

/// One-way client↔server propagation delay (LAN).
pub const PROP_DELAY: Cycles = us(40);
/// Interrupt delivery latency from DMA completion to softirq start.
pub const IRQ_LATENCY: Cycles = us(4);
/// Packets one softirq invocation drains before yielding.
pub const SOFTIRQ_BUDGET: usize = 64;
/// Application work items one task step handles before yielding.
pub const TASK_BUDGET: usize = 16;
/// How far a core's local time may run ahead of the event clock before a
/// batch (softirq drain, task loop) yields and reschedules itself. Keeping
/// this small keeps lock acquisitions near-time-ordered across cores,
/// which the timeline lock model relies on.
pub const RUNAHEAD_HORIZON: Cycles = us(60);
/// Upper bound on thundering-herd wakeups modelled per enqueue.
pub const HERD_MAX: usize = 8;
/// Runnable batch-job (make) threads per hogged core: the scheduler
/// time-slices web work against them, dilating its wall-clock time.
pub const HOG_THREADS: u64 = 2;
/// TCP maximum segment size used when segmenting responses.
pub const MSS: u32 = tcp::ops::MSS;
/// How often a [`ListenKind::BusyPoll`] acceptor re-polls its queue.
pub const BUSY_POLL_INTERVAL: Cycles = us(50);
/// Cycles one empty busy-poll probe of the accept queue costs.
pub const BUSY_POLL_PROBE: Cycles = 120;

/// Which listen-socket implementation a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListenKind {
    /// Stock Linux (single lock).
    Stock,
    /// Fine-grained locks, round-robin accept.
    Fine,
    /// Affinity-Accept.
    Affinity,
    /// Stock + hardware per-flow steering (§7.1's "Twenty-Policy"): the
    /// first-class form of the `twenty_policy` config flag.
    Twenty,
    /// Affinity-Accept with busy-polling acceptors: instead of sleeping
    /// until a wakeup, each core's acceptor re-polls its local queue
    /// every [`BUSY_POLL_INTERVAL`], keeping the per-core busy tracker
    /// (`core/busy.rs`) exercised even on an idle queue.
    BusyPoll,
}

impl ListenKind {
    /// Harness label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ListenKind::Stock => "stock",
            ListenKind::Fine => "fine",
            ListenKind::Affinity => "affinity",
            ListenKind::Twenty => "twenty",
            ListenKind::BusyPoll => "busypoll",
        }
    }

    /// Every listen kind the harnesses iterate over.
    pub const ALL: [ListenKind; 5] = [
        ListenKind::Stock,
        ListenKind::Fine,
        ListenKind::Affinity,
        ListenKind::Twenty,
        ListenKind::BusyPoll,
    ];
}

/// Full configuration of one run. `PartialEq` makes "two construction
/// paths build the same run" provable by a cheap equality assert (the
/// scenario catalog's fig6-parity test relies on it): with determinism
/// pinned by the golden fingerprints, equal configs imply bit-identical
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Machine model.
    pub machine: Machine,
    /// Active cores (the paper sweeps 1..48 / 1..80).
    pub cores: usize,
    /// Listen-socket implementation.
    pub listen: ListenKind,
    /// Server application.
    pub server: ServerKind,
    /// Client workload.
    pub workload: Workload,
    /// Offered new-connection rate (connections/second).
    pub conn_rate: f64,
    /// Warmup before measurement.
    pub warmup: Cycles,
    /// Measurement window.
    pub measure: Cycles,
    /// RNG seed (a `(config, seed)` pair reproduces a run exactly).
    pub seed: u64,
    /// Enable the `lock_stat` profiler (Table 2; perturbs the run).
    pub lockstat: bool,
    /// Enable DProf (Tables 3–4, Figure 4).
    pub dprof: bool,
    /// Enable the dprof-v2 per-cacheline ledger: fills, touches, and the
    /// fetched bytes each fill's generation touched or wasted. Pure
    /// accounting — no events, no RNG draws, no latency changes — so
    /// toggling it is fingerprint-neutral; under the `fast` feature the
    /// whole plane compiles out. Separate from [`RunConfig::dprof`], whose
    /// per-field masks and latency histograms cost more.
    pub dprof_v2: bool,
    /// Use Stock + hardware per-flow steering (§7.1 "Twenty-Policy"), as
    /// [`ListenKind::Twenty`] does. Nothing in the workspace sets it; it
    /// stays only because `simbench/src/layers.rs` reads it, and deleting
    /// it is a benchmark change.
    pub twenty_policy: bool,
    /// §6.5: run the batch job on the upper half of the cores, with this
    /// much total CPU work (None = no batch job).
    pub hog_work: Option<Cycles>,
    /// Connection stealing enabled (Affinity-Accept only).
    pub steal_enabled: bool,
    /// Flow-group migration interval (§3.3.2's 100 ms by default; scaled
    /// experiments shrink it together with their time scale).
    pub migrate_interval: Cycles,
    /// Total `listen()` backlog (split per core by Affinity/Fine).
    pub max_backlog: usize,
    /// Flow-group migration enabled (Affinity-Accept only).
    pub migrate_enabled: bool,
    /// User-space cycles per request (defaults from the server kind).
    pub app_cycles: Cycles,
    /// Tracked `file` objects (bounded subset of the 30,000-file set).
    pub tracked_files: usize,
    /// Bucket width for [`RunResult::timeline`]; 0 (the default) disables
    /// collection. Pure accounting — no events and no RNG draws, so
    /// enabling it never perturbs fingerprints.
    pub timeline_bucket: Cycles,
    /// Absolute simulation time the run boots at. Every
    /// constructor-scheduled event (arrival seed, measurement switch,
    /// balancer chains) shifts by this offset, the run ends
    /// at `start_at + warmup + measure`, and timeline buckets count from
    /// time 0. The default `0` is the classic run.
    pub start_at: Cycles,
}

impl RunConfig {
    /// A run with paper-default knobs.
    #[must_use]
    pub fn new(
        machine: Machine,
        cores: usize,
        listen: ListenKind,
        server: ServerKind,
        workload: Workload,
        conn_rate: f64,
    ) -> Self {
        assert!(cores >= 1 && cores <= machine.n_cores);
        Self {
            machine,
            cores,
            listen,
            server,
            app_cycles: server.app_cycles(),
            workload,
            conn_rate,
            warmup: ms(600),
            measure: ms(500),
            seed: 1,
            lockstat: false,
            dprof: false,
            dprof_v2: false,
            twenty_policy: false,
            hog_work: None,
            steal_enabled: true,
            migrate_enabled: true,
            migrate_interval: ms(100),
            max_backlog: 128 * cores,
            tracked_files: 2_000,
            timeline_bucket: 0,
            start_at: 0,
        }
    }
}

/// Everything measured during the window.
pub struct RunResult {
    /// Requests served per second.
    pub rps: f64,
    /// Requests served per second per active core (the figures' y-axis).
    pub rps_per_core: f64,
    /// Requests served in the window.
    pub served: u64,
    /// Fraction of served requests processed with connection affinity.
    pub affinity_frac: f64,
    /// Aggregate idle fraction of the active cores.
    pub idle_frac: f64,
    /// Accept-queue overflow drops in the window.
    pub drops_overflow: u64,
    /// NIC ring-full + flush drops in the window.
    pub drops_nic: u64,
    /// Client-observed connection latencies.
    pub latency: Histogram,
    /// Connections completed / timed out at the client.
    pub conns_completed: u64,
    /// Client-abandoned connections.
    pub timeouts: u64,
    /// Per-entry performance counters (requests set for normalization).
    pub perf: PerfCounters,
    /// Lock profiler snapshot.
    pub lockstat: LockStat,
    /// Listen-socket counters (window delta).
    pub listen_stats: affinity_accept::listen::ListenStats,
    /// Batch-job runtime, when one ran.
    pub batch_runtime: Option<Cycles>,
    /// Flow-group migrations in the window.
    pub migrations: u64,
    /// Wire utilization over the window.
    pub wire_util: f64,
    /// Order-sensitive hash of the executed event stream: two runs of the
    /// same `(config, seed)` must produce equal fingerprints (the
    /// determinism tripwire `scenario --fuzz` and the golden tests rely
    /// on).
    pub fingerprint: u64,
    /// Events dispatched by the run loop over the whole run; with the
    /// wall-clock time this gives the scheduler's events/sec.
    pub events_executed: u64,
    /// Event-queue entries moved out of a level-1 or higher wheel slot by
    /// cascades over the whole run ([`sim::wheel::TimerWheel::cascaded`]).
    pub cascaded: u64,
    /// End-of-run conservation audit (see [`crate::audit`]).
    pub audit: RunAudit,
    /// Served requests per [`RunConfig::timeline_bucket`]-wide bucket over
    /// the whole run (warmup included); empty when collection is off.
    pub timeline: Vec<u64>,
    /// dprof-v2 cacheline report: the run's ledger totals (all zero, with
    /// `enabled: false`, unless [`RunConfig::dprof_v2`] was set in an
    /// instrumented build).
    pub cacheline: mem::CachelineStats,
    /// The kernel, for DProf and further inspection.
    pub kernel: Kernel,
}

impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunResult")
            .field("rps", &self.rps)
            .field("rps_per_core", &self.rps_per_core)
            .field("idle_frac", &self.idle_frac)
            .field("affinity_frac", &self.affinity_frac)
            .field("drops_overflow", &self.drops_overflow)
            .field("timeouts", &self.timeouts)
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .finish_non_exhaustive()
    }
}

/// One scheduled event. The queue holds hundreds of thousands of these on
/// big runs, so the enum is kept at ≤ 16 bytes: 24-byte [`Packet`]
/// payloads live in the runner's [`PktSlab`] behind a `u32` handle, and
/// client connection ids are narrowed to `u32` (the slab and the client
/// fleet both panic loudly long before either range is exhausted).
#[derive(Debug)]
enum Ev {
    Arrival,
    /// Client→server packet in flight (slab handle).
    Wire(u32),
    Softirq(u16),
    TaskRun(u32),
    Think(CConnId),
    /// Per-connection client timeout. It stays queued when its connection
    /// finishes first, and then finds no live connection when it fires.
    Timeout(u32),
    /// Server→client packet: `(client conn id, slab handle)`.
    ToClient(u32, u32),
    TxComplete(ConnId),
    Balance,
    SchedBalance,
    Hog(u16),
    MeasureStart,
    /// Busy-poll tick of core's acceptor ([`ListenKind::BusyPoll`]).
    PollAccept(u16),
}

const _: () = assert!(
    std::mem::size_of::<Ev>() <= 16,
    "Ev outgrew its 16-byte budget; intern large payloads instead"
);

// Pool of event queues and packet slabs recycled across the runs of a
// sweep: the wheel's node slab and ready queue and the packet slab's
// backing store are sized by the first run and reused warm by the rest.
thread_local! {
    static Q_POOL: RefCell<Vec<(EventQueue<Ev>, PktSlab)>> = const { RefCell::new(Vec::new()) };
}

/// Queues kept per thread; a sweep worker only ever needs one.
const Q_POOL_MAX: usize = 2;

/// The mutable scheduling state owned by exactly one core. Every field
/// here is only ever read or written while handling an event on this
/// core's lane.
///
/// Field order is by measured access affinity (the same analysis dprof-v2
/// applies to the modeled kernel structs, turned on the simulator's own
/// lanes): the per-event hot set — both task stacks and the acceptor id —
/// is packed into the first host cache line; the rare lazy-growth and hog
/// bookkeeping forms the cold tail. `repr(C)` pins the declared order so
/// the split is real, and the size assert below keeps the lane from
/// quietly outgrowing two lines.
#[derive(Debug)]
#[repr(C)]
struct CoreState {
    /// Tasks sleeping in accept/poll on this core (a stack).
    sleep_acceptors: Vec<u32>,
    /// Idle Apache workers parked on this core.
    idle_workers: Vec<u32>,
    /// The core's Apache acceptor task (`u32::MAX` when lighttpd).
    acceptor: u32,
    // --- cold tail: touched only by lazy growth and hog polls ---
    /// Workers spawned so far (for the lazy-growth cap).
    workers_spawned: usize,
    /// (busy_cycles, wall) seen at the last idle-scavenging hog poll.
    hog_seen: (Cycles, Cycles),
}

// The hot set (two Vec headers + acceptor) must stay within the first 64
// host bytes, and a lane within two lines.
const _: () = assert!(std::mem::size_of::<CoreState>() <= 128);
const _: () = assert!(std::mem::offset_of!(CoreState, acceptor) + 4 <= 64);

impl CoreState {
    fn new() -> Self {
        Self {
            sleep_acceptors: Vec::new(),
            idle_workers: Vec::new(),
            acceptor: u32::MAX,
            workers_spawned: 0,
            hog_seen: (0, 0),
        }
    }
}

/// The rates [`Runner::run`] measures over the window, taken when the
/// run first reaches `end_at`: a batch-job run goes on past it only to
/// time the job and to audit the end state. The client's latencies,
/// completions and timeouts are read at the end of the run instead: a
/// job run admits no arrival past `end_at`, so each connection its
/// window admitted counts by its outcome.
struct Window {
    served: u64,
    affinity_served: u64,
    idle_frac: f64,
    drops_nic: u64,
    perf: PerfCounters,
    lockstat: LockStat,
    listen_stats: affinity_accept::listen::ListenStats,
    wire_bytes: u64,
}

/// The assembled simulation. Use [`Runner::run`].
pub struct Runner {
    cfg: RunConfig,
    q: EventQueue<Ev>,
    /// In-flight packet payloads referenced by `Ev::Wire`/`Ev::ToClient`.
    pkts: PktSlab,
    now: Cycles,
    cores: CoreSet,
    k: Kernel,
    nic: Nic,
    listen: Box<dyn ListenSocket>,
    clients: Clients,
    tasks: Vec<STask>,
    /// The runner's per-core mutable scheduling state — one lane per
    /// active core (see [`CoreState`]).
    lanes: Vec<CoreState>,
    /// The task that owns each accepted connection.
    conn_app: FastMap<ConnId, u32>,
    twenty: Option<TwentyPolicy>,
    hog: Option<BatchJob>,
    softirq_pending: Vec<bool>,
    rng: SimRng,
    measuring: bool,
    end_at: Cycles,
    served: u64,
    affinity_served: u64,
    /// Whole-run served counts per `cfg.timeline_bucket` (empty when off).
    timeline: Vec<u64>,
    /// Folded only when `sim::fingerprint::ENABLED`.
    fingerprint: Fingerprint,
    /// Events dispatched by the run loop.
    events_executed: u64,
    /// Accepted outcomes observed (audit: must equal the listen socket's
    /// local + stolen accept counters).
    accepts_seen: u64,
    /// Packets the softirq path dispatched (audit: must equal ring
    /// dequeues).
    dispatched: u64,
    base_listen: affinity_accept::listen::ListenStats,
    base_nic_drops: u64,
    base_wire_bytes: u64,
    wake_buf: Vec<CoreId>,
    arrival_interval_mean: f64,
}

impl Runner {
    /// Builds a runner from a config.
    #[must_use]
    #[expect(clippy::needless_range_loop)]
    pub fn new(cfg: RunConfig) -> Self {
        let mut k = Kernel::new(cfg.machine.clone());
        if cfg.lockstat {
            k.enable_lockstat();
        }
        if cfg.dprof {
            k.enable_dprof();
        }
        if cfg.dprof_v2 {
            k.enable_dprof_v2();
        }
        k.init_files(cfg.tracked_files);

        let rings = cfg.cores.min(cfg.machine.total_rings());
        let twenty_mode = cfg.twenty_policy || cfg.listen == ListenKind::Twenty;
        let steering = if twenty_mode {
            Steering::per_flow(rings, nic::steering::FDIR_DEFAULT_CAPACITY)
        } else {
            Steering::flow_groups(rings, nic::steering::DEFAULT_FLOW_GROUPS)
        };
        let nic = Nic::new(rings, steering);

        let mut lcfg = ListenConfig::paper(cfg.cores);
        lcfg.stealing = cfg.steal_enabled;
        lcfg.migration = cfg.migrate_enabled;
        lcfg.max_backlog = cfg.max_backlog;
        let listen: Box<dyn ListenSocket> = match cfg.listen {
            ListenKind::Stock | ListenKind::Twenty => Box::new(StockAccept::new(&mut k, lcfg)),
            ListenKind::Fine => Box::new(FineAccept::new(&mut k, lcfg)),
            ListenKind::Affinity | ListenKind::BusyPoll => {
                Box::new(AffinityAccept::new(&mut k, lcfg))
            }
        };

        let clients = Clients::new(cfg.workload.clone(), cfg.seed);
        let mut tasks = Vec::new();
        let mut lanes: Vec<CoreState> = (0..cfg.cores).map(|_| CoreState::new()).collect();
        match cfg.server {
            ServerKind::ApacheWorker { .. } => {
                for c in 0..cfg.cores {
                    let core = CoreId(c as u16);
                    let objs = k.new_task_objs(core);
                    let tid = tasks.len() as u32;
                    let mut t = STask::new(core, true, TaskRole::Acceptor, objs);
                    t.sleeping = true;
                    tasks.push(t);
                    lanes[c].acceptor = tid;
                    lanes[c].sleep_acceptors.push(tid);
                }
            }
            ServerKind::Lighttpd { procs_per_core, .. } => {
                for c in 0..cfg.cores {
                    let core = CoreId(c as u16);
                    for _ in 0..procs_per_core {
                        let objs = k.new_task_objs(core);
                        let tid = tasks.len() as u32;
                        let mut t = STask::new(core, false, TaskRole::EventLoop, objs);
                        t.sleeping = true;
                        tasks.push(t);
                        lanes[c].sleep_acceptors.push(tid);
                    }
                }
            }
        }

        let hog = cfg.hog_work.map(|work| {
            let hog_cores: Vec<CoreId> = (cfg.cores / 2..cfg.cores)
                .map(|c| CoreId(c as u16))
                .collect();
            BatchJob::kernel_make(work, hog_cores, 0)
        });

        let twenty = twenty_mode.then(TwentyPolicy::new);
        let arrival_interval_mean = CYCLES_PER_SEC as f64 / cfg.conn_rate.max(1e-9);
        let end_at = cfg.start_at + cfg.warmup + cfg.measure;
        let n_rings = nic.n_rings();
        // Reuse a pooled (already reset) queue so sweep runs after the
        // first start with warm allocations.
        let (q, pkts) = Q_POOL.with(|p| p.borrow_mut().pop().unwrap_or_default());

        let mut r = Self {
            rng: SimRng::new(cfg.seed),
            q,
            pkts,
            now: cfg.start_at,
            cores: CoreSet::new(cfg.cores),
            k,
            nic,
            listen,
            clients,
            tasks,
            lanes,
            conn_app: FastMap::default(),
            twenty,
            hog,
            softirq_pending: vec![false; n_rings],
            measuring: false,
            end_at,
            served: 0,
            affinity_served: 0,
            timeline: Vec::new(),
            fingerprint: Fingerprint::new(),
            events_executed: 0,
            accepts_seen: 0,
            dispatched: 0,
            base_listen: Default::default(),
            base_nic_drops: 0,
            base_wire_bytes: 0,
            wake_buf: Vec::new(),
            arrival_interval_mean,
            cfg,
        };
        // All constructor-scheduled times are relative to the boot time
        // (`t0` is 0 for classic runs, so nothing moves).
        let t0 = r.cfg.start_at;
        r.q.push(t0, Ev::Arrival);
        r.q.push(t0 + r.cfg.warmup, Ev::MeasureStart);
        let mi = r.cfg.migrate_interval.max(ms(1));
        r.q.push(t0 + mi, Ev::Balance);
        if !r.cfg.server.pinned() {
            r.q.push(t0 + ms(10), Ev::SchedBalance);
        }
        if let Some(job) = &r.hog {
            for c in job.cores().to_vec() {
                r.q.push(t0, Ev::Hog(c.0));
            }
        }
        if r.cfg.listen == ListenKind::BusyPoll {
            for c in 0..r.cfg.cores {
                r.q.push(t0 + BUSY_POLL_INTERVAL, Ev::PollAccept(c as u16));
            }
        }
        r
    }

    /// Time-slicing factor for web work on `core`: `1 + runnable make
    /// threads` while the batch job is active there (CFS gives each
    /// runnable thread an equal share).
    fn web_factor(&self, core: CoreId) -> u64 {
        match &self.hog {
            Some(job) if job.runnable_on(core) => 1 + HOG_THREADS,
            _ => 1,
        }
    }

    /// Executes `dur` cycles of web-side work on `core`, dilated by the
    /// batch job's time slices; the dilation is credited to the job.
    fn exec(&mut self, core: CoreId, start: Cycles, dur: Cycles) -> Cycles {
        let f = self.web_factor(core);
        let end = self.cores.run(core, start, dur * f);
        if f > 1 {
            if let Some(job) = &mut self.hog {
                job.credit(core, dur * (f - 1), end);
            }
        }
        end
    }

    fn send_to_server(&mut self, pkt: Packet, at: Cycles) {
        let handle = self.pkts.intern(pkt);
        self.q.push(at, Ev::Wire(handle));
    }

    /// Narrows a client connection id for event storage. Ids are
    /// sequential from 1, so a run would need 4 billion connections to
    /// overflow; panic rather than alias if that ever happens.
    fn ev_cid(cid: CConnId) -> u32 {
        u32::try_from(cid).expect("client conn id overflows event storage")
    }

    fn tx_response(&mut self, at: Cycles, conn: ConnId, bytes: u32) {
        let tuple = self.k.conn(conn).tuple;
        let Some(cid) = self.clients.conn_of(&tuple) else {
            return;
        };
        let mut left = bytes;
        let mut t = at;
        loop {
            let chunk = left.min(MSS);
            left -= chunk;
            let pkt = Packet::new(tuple, PacketKind::Data, chunk);
            let wire_end = self.nic.tx(t, pkt.wire_bytes());
            t = wire_end;
            let handle = self.pkts.intern(pkt);
            self.q.push(
                wire_end + PROP_DELAY,
                Ev::ToClient(Self::ev_cid(cid), handle),
            );
            if left == 0 {
                // The TX-completion interrupt fires on the connection's
                // ring core once the last segment leaves.
                self.q.push(wire_end + IRQ_LATENCY, Ev::TxComplete(conn));
                break;
            }
        }
    }

    fn tx_control(&mut self, at: Cycles, tuple: nic::FlowTuple, kind: PacketKind) {
        let Some(cid) = self.clients.conn_of(&tuple) else {
            return;
        };
        let pkt = Packet::new(tuple, kind, 0);
        let wire_end = self.nic.tx(at, pkt.wire_bytes());
        let handle = self.pkts.intern(pkt);
        self.q.push(
            wire_end + PROP_DELAY,
            Ev::ToClient(Self::ev_cid(cid), handle),
        );
    }

    fn schedule_task(&mut self, tid: u32, at: Cycles) {
        let t = &mut self.tasks[tid as usize];
        if !t.queued {
            t.queued = true;
            self.q.push(at, Ev::TaskRun(tid));
        }
    }

    /// Wakes the task owning `conn` (if sleeping), returning its objects
    /// for the softirq-side wakeup charge.
    fn owner_wake(&mut self, conn: ConnId) -> (Option<tcp::kernel::TaskObjs>, Option<u32>) {
        let Some(&tid) = self.conn_app.get(&conn) else {
            return (None, None);
        };
        let t = &mut self.tasks[tid as usize];
        if t.sleeping {
            t.sleeping = false;
            t.just_woken = true;
            (Some(t.objs), Some(tid))
        } else {
            (None, Some(tid))
        }
    }

    fn mark_ready(&mut self, conn: ConnId, tid: u32, run_at: Cycles) {
        let t = &mut self.tasks[tid as usize];
        if !t.ready.contains(&conn) {
            t.ready.push_back(conn);
        }
        self.schedule_task(tid, run_at);
    }

    /// Wakes acceptors after an enqueue on `queue_core`; returns extra
    /// softirq cycles (the wakeups are performed by the enqueuing core).
    fn wake_acceptors(
        &mut self,
        queue_core: CoreId,
        softirq_core: CoreId,
        run_at: Cycles,
    ) -> Cycles {
        let mut buf = std::mem::take(&mut self.wake_buf);
        self.listen.wake_candidates(queue_core, &mut buf);
        let herd = self.listen.wakes_all_pollers() && self.cfg.server.poll_based();
        let mut extra = 0;
        let mut woken = 0usize;
        'outer: for core in &buf {
            while let Some(tid) = self.lanes[core.index()].sleep_acceptors.pop() {
                let t = &mut self.tasks[tid as usize];
                t.sleeping = false;
                t.just_woken = true;
                let objs = t.objs;
                extra += ops::wake_task(&mut self.k, softirq_core, &objs);
                self.schedule_task(tid, run_at);
                woken += 1;
                if !herd || woken >= HERD_MAX {
                    break 'outer;
                }
            }
            if !herd && woken > 0 {
                break;
            }
        }
        self.wake_buf = buf;
        extra
    }

    fn count_served(&mut self, conn: ConnId) {
        if let Some(q) = self.now.checked_div(self.cfg.timeline_bucket) {
            let b = q as usize;
            if self.timeline.len() <= b {
                self.timeline.resize(b + 1, 0);
            }
            self.timeline[b] += 1;
        }
        if self.measuring {
            self.served += 1;
            self.k.perf.requests += 1;
            if self.k.conn(conn).has_affinity() {
                self.affinity_served += 1;
            }
        }
    }

    /// Serves one ready connection from task `tid`; returns whether the
    /// connection was closed.
    fn serve_conn(&mut self, tid: u32, conn: ConnId) -> bool {
        let core = self.tasks[tid as usize].core;
        if !self.k.has_conn(conn) {
            return true;
        }
        // Read whatever requests arrived.
        if !self.k.conn(conn).rcv_queue.is_empty() {
            let start = self.cores.start_time(core, self.now);
            let (d, tags) = ops::sys_read(&mut self.k, core, start, conn);
            let mut end = self.exec(core, start, d);
            for tag in tags {
                // Application processing + response.
                let is_apache = matches!(self.cfg.server, ServerKind::ApacheWorker { .. });
                if is_apache {
                    let objs = self.tasks[tid as usize].objs;
                    let d = ops::sys_futex_pair(&mut self.k, core, end, &objs);
                    end = self.exec(core, end, d);
                    // The worker waits for each request in poll() on the
                    // connection's descriptor.
                    let d = ops::sys_poll_conn(&mut self.k, core, end, &objs, conn);
                    end = self.exec(core, end, d);
                } else {
                    let d = ops::sys_epoll_wait(&mut self.k);
                    end = self.exec(core, end, d);
                }
                let d = ops::app_request(&mut self.k, core, tag as usize, self.cfg.app_cycles);
                end = self.exec(core, end, d);
                let file_size = self.clients.files().size(tag as usize);
                let bytes = Workload::response_bytes(file_size);
                let tuple = self.k.conn(conn).tuple;
                let (d, n_pkts) = ops::sys_writev(&mut self.k, core, end, conn, bytes);
                end = self.exec(core, end, d);
                if let Some(tw) = &mut self.twenty {
                    if let Some(table) = self.nic.steering.per_flow_mut() {
                        let d = tw.on_tx(table, end, conn, &tuple, core, n_pkts);
                        if d > 0 {
                            end = self.exec(core, end, d);
                        }
                    }
                }
                let d = ops::rcu_tick(&mut self.k);
                end = self.exec(core, end, d);
                self.tx_response(end, conn, bytes);
                self.count_served(conn);
            }
        }
        // Teardown if the client is done.
        if self.k.has_conn(conn)
            && self.k.conn(conn).state == ConnState::Closing
            && self.k.conn(conn).rcv_queue.is_empty()
        {
            let start = self.cores.start_time(core, self.now);
            let (d, _fins) = ops::sys_shutdown(&mut self.k, core, start, conn);
            let end = self.exec(core, start, d);
            let d = ops::sys_close(&mut self.k, core, end, conn);
            self.exec(core, end, d);
            self.k.remove_conn(conn);
            self.conn_app.remove(&conn);
            if let Some(tw) = &mut self.twenty {
                tw.on_close(conn);
            }
            return true;
        }
        false
    }

    /// Accepts one connection on behalf of `tid`; returns false when
    /// nothing was accepted.
    fn do_accept(&mut self, tid: u32) -> bool {
        let core = self.tasks[tid as usize].core;
        let start = self.cores.start_time(core, self.now);
        match self.listen.try_accept(&mut self.k, core, start) {
            AcceptOutcome::Accepted {
                item,
                cycles,
                resume_at,
                ..
            } => {
                self.accepts_seen += 1;
                let end = self.exec(core, resume_at, cycles);
                let d = ops::accept_established(&mut self.k, core, end, item.conn, item.req_obj);
                self.exec(core, end, d);
                // Ownership: Apache hands the connection to a worker;
                // lighttpd keeps it in the accepting process.
                match self.cfg.server {
                    ServerKind::ApacheWorker { workers_per_core } => {
                        // The acceptor accepts only while this core has a
                        // free worker slot, and nothing since took one.
                        let wid = self
                            .take_worker(core, workers_per_core)
                            .expect("the acceptor checked for a free worker slot");
                        self.conn_app.insert(item.conn, wid);
                        self.tasks[wid as usize].conns += 1;
                        let run_at = self.cores.core(core).busy_until;
                        self.mark_ready(item.conn, wid, run_at);
                    }
                    ServerKind::Lighttpd { .. } => {
                        self.conn_app.insert(item.conn, tid);
                        let t = &mut self.tasks[tid as usize];
                        t.conns += 1;
                        if !self.k.conn(item.conn).rcv_queue.is_empty()
                            || self.k.conn(item.conn).state == ConnState::Closing
                        {
                            t.ready.push_back(item.conn);
                        }
                    }
                }
                true
            }
            AcceptOutcome::Empty { cycles, resume_at } => {
                self.exec(core, resume_at, cycles);
                false
            }
        }
    }

    fn take_worker(&mut self, core: CoreId, cap: usize) -> Option<u32> {
        if let Some(w) = self.lanes[core.index()].idle_workers.pop() {
            return Some(w);
        }
        if self.lanes[core.index()].workers_spawned < cap {
            self.lanes[core.index()].workers_spawned += 1;
            let objs = self.k.new_task_objs(core);
            let tid = self.tasks.len() as u32;
            self.tasks
                .push(STask::new(core, true, TaskRole::Worker, objs));
            return Some(tid);
        }
        None
    }

    fn release_worker(&mut self, tid: u32) {
        let core = self.tasks[tid as usize].core;
        self.lanes[core.index()].idle_workers.push(tid);
        // The acceptor may have stalled on a full worker pool; nudge it.
        let acceptor = self.lanes[core.index()].acceptor;
        if acceptor != u32::MAX && self.listen.queued_on(core) > 0 {
            let a = &mut self.tasks[acceptor as usize];
            if a.sleeping {
                a.sleeping = false;
                a.just_woken = true;
                self.lanes[core.index()]
                    .sleep_acceptors
                    .retain(|t| *t != acceptor);
                self.schedule_task(acceptor, self.now);
            }
        }
    }

    fn task_run(&mut self, tid: u32) {
        self.tasks[tid as usize].queued = false;
        let core = self.tasks[tid as usize].core;
        let role = self.tasks[tid as usize].role;
        let objs = self.tasks[tid as usize].objs;
        // Context switch into the task (only on a sleep→run transition;
        // yield-requeues continue the same task without a switch).
        if std::mem::take(&mut self.tasks[tid as usize].just_woken) {
            let start = self.cores.start_time(core, self.now);
            let d = ops::schedule_in(&mut self.k, core, start, &objs);
            self.exec(core, start, d);
            if role == TaskRole::EventLoop {
                let start = self.cores.start_time(core, self.now);
                let d = ops::sys_poll(&mut self.k, core, start, &objs);
                self.exec(core, start, d);
            }
        }

        let mut budget = TASK_BUDGET;
        loop {
            let has_work = !self.tasks[tid as usize].ready.is_empty();
            // The run-ahead yield preserves near-time-ordered use of the
            // *listen-socket* path, so it applies to roles that accept;
            // workers only touch per-connection state and yield on budget.
            let accepts = role != TaskRole::Worker;
            let drifted =
                accepts && self.cores.start_time(core, self.now) > self.now + RUNAHEAD_HORIZON;
            if has_work && (budget == 0 || drifted) {
                // More to do, but the core is backed up: yield and come
                // back when it frees.
                let at = self.cores.core(core).busy_until;
                self.schedule_task(tid, at);
                return;
            }
            if !has_work && drifted {
                // Nothing queued and the core is backed up: don't start
                // accept scans now; retry when the core frees.
                let at = self.cores.core(core).busy_until;
                self.schedule_task(tid, at);
                return;
            }
            budget = budget.saturating_sub(1);
            if let Some(conn) = self.tasks[tid as usize].ready.pop_front() {
                let closed = self.serve_conn(tid, conn);
                if closed {
                    self.tasks[tid as usize].conns =
                        self.tasks[tid as usize].conns.saturating_sub(1);
                    if role == TaskRole::Worker && self.tasks[tid as usize].conns == 0 {
                        self.release_worker(tid);
                        self.tasks[tid as usize].sleeping = true;
                        return;
                    }
                }
                continue;
            }
            match role {
                TaskRole::Worker => {
                    // Workers wait for more data on their connection.
                    self.tasks[tid as usize].sleeping = true;
                    return;
                }
                TaskRole::Acceptor => {
                    // Accept only while a worker slot is available.
                    let cap = match self.cfg.server {
                        ServerKind::ApacheWorker { workers_per_core } => workers_per_core,
                        ServerKind::Lighttpd { .. } => unreachable!("acceptor is apache-only"),
                    };
                    let have_slot = !self.lanes[core.index()].idle_workers.is_empty()
                        || self.lanes[core.index()].workers_spawned < cap;
                    if !have_slot || !self.do_accept(tid) {
                        let t = &mut self.tasks[tid as usize];
                        t.sleeping = true;
                        self.lanes[core.index()].sleep_acceptors.push(tid);
                        return;
                    }
                }
                TaskRole::EventLoop => {
                    let cap = match self.cfg.server {
                        ServerKind::Lighttpd {
                            max_conns_per_proc, ..
                        } => max_conns_per_proc,
                        ServerKind::ApacheWorker { .. } => usize::MAX,
                    };
                    if self.tasks[tid as usize].conns >= cap || !self.do_accept(tid) {
                        let t = &mut self.tasks[tid as usize];
                        t.sleeping = true;
                        self.lanes[core.index()].sleep_acceptors.push(tid);
                        return;
                    }
                }
            }
        }
    }

    fn dispatch_packet(&mut self, core: CoreId, start: Cycles, pkt: Packet) -> Cycles {
        match pkt.kind {
            PacketKind::Syn => {
                let d = self.listen.on_syn(&mut self.k, core, start, pkt.tuple);
                self.tx_control(start + d, pkt.tuple, PacketKind::SynAck);
                d
            }
            PacketKind::Ack => {
                let (d, outcome) = self.listen.on_ack(&mut self.k, core, start, pkt.tuple);
                if let AckOutcome::Enqueued { queue_core, .. } = outcome {
                    let extra = self.wake_acceptors(queue_core, core, start + d);
                    d + extra
                } else {
                    d
                }
            }
            PacketKind::Data => {
                let Some(conn) = self.k.est.lookup(&pkt.tuple) else {
                    return 500;
                };
                self.k.conn_mut(conn).rx_core = core;
                let (wake_objs, owner) = self.owner_wake(conn);
                let d = ops::data_rx(
                    &mut self.k,
                    core,
                    start,
                    conn,
                    pkt.payload,
                    pkt.tag,
                    wake_objs.as_ref(),
                );
                if let Some(tid) = owner {
                    self.mark_ready(conn, tid, start + d);
                }
                d
            }
            PacketKind::DataAck => {
                let Some(conn) = self.k.est.lookup(&pkt.tuple) else {
                    return 300;
                };
                self.k.conn_mut(conn).rx_core = core;
                ops::data_ack_rx(&mut self.k, core, start, conn)
            }
            PacketKind::Fin => {
                let Some(conn) = self.k.est.lookup(&pkt.tuple) else {
                    return 300;
                };
                self.k.conn_mut(conn).rx_core = core;
                let (wake_objs, owner) = self.owner_wake(conn);
                let d = ops::fin_rx(&mut self.k, core, start, conn, wake_objs.as_ref());
                if let Some(tid) = owner {
                    self.mark_ready(conn, tid, start + d);
                }
                d
            }
            PacketKind::SynAck => 0, // server never receives these
        }
    }

    fn softirq(&mut self, ring: u16) {
        let core = self.nic.ring_core(RingId(ring));
        let mut budget = SOFTIRQ_BUDGET;
        while budget > 0 {
            let start = self.cores.start_time(core, self.now);
            if start > self.now + RUNAHEAD_HORIZON {
                break;
            }
            let Some((pkt, _)) = self.nic.ring_mut(RingId(ring)).pop() else {
                break;
            };
            budget -= 1;
            self.dispatched += 1;
            let d = self.dispatch_packet(core, start, pkt);
            // Softirq work is not time-sliced against the batch job: it
            // runs in interrupt context, above any user thread.
            self.cores.run(core, start, d);
        }
        if self.nic.ring(RingId(ring)).is_empty() {
            self.softirq_pending[ring as usize] = false;
        } else {
            let at = self.cores.core(core).busy_until.max(self.now);
            self.q.push(at, Ev::Softirq(ring));
        }
    }

    /// Folds one dispatched event into the run fingerprint as a
    /// `(time, kind, payload)` triple. The payload identifies the event's
    /// target (flow, ring, task, connection), so any reordering — across
    /// time, across cores, or within a same-time tie — changes the hash.
    fn fold_event(&mut self, t: Cycles, ev: &Ev) {
        let (kind, payload) = match ev {
            Ev::Arrival => (0, 0),
            Ev::Wire(handle) => {
                let pkt = self.pkts.get(*handle);
                (1, pkt.tuple.hash() ^ (pkt.kind as u64) << 60)
            }
            Ev::Softirq(ring) => (2, u64::from(*ring)),
            Ev::TaskRun(tid) => (3, u64::from(*tid)),
            Ev::Think(cid) => (4, *cid),
            // A finished connection's timeout folds like a live one: the
            // heap-era fingerprint covered every popped event.
            Ev::Timeout(cid) => (5, u64::from(*cid)),
            Ev::ToClient(cid, handle) => {
                let pkt = self.pkts.get(*handle);
                (6, u64::from(*cid) ^ u64::from(pkt.payload) << 32)
            }
            Ev::TxComplete(conn) => (7, conn.0),
            Ev::Balance => (8, 0),
            Ev::SchedBalance => (9, 0),
            Ev::Hog(core) => (10, u64::from(*core)),
            Ev::MeasureStart => (11, 0),
            // Codes 12 and 13 are unassigned: busy-poll ticks keep 14 so
            // every recorded golden stays valid.
            Ev::PollAccept(core) => (14, u64::from(*core)),
        };
        self.fingerprint.fold_event(t, kind, payload);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => {
                let (cid, syn) = self.clients.start_conn(self.now);
                self.send_to_server(syn, self.now + PROP_DELAY);
                self.q.push(
                    self.now + self.clients.workload().timeout,
                    Ev::Timeout(Self::ev_cid(cid)),
                );
                let gap = self.rng.exp(self.arrival_interval_mean).max(1.0) as Cycles;
                self.q.push(self.now + gap, Ev::Arrival);
            }
            Ev::Wire(handle) => match self.nic.rx(self.now, self.pkts.take(handle)) {
                RxOutcome::Delivered { ring, at } => {
                    if !self.softirq_pending[ring.0 as usize] {
                        self.softirq_pending[ring.0 as usize] = true;
                        self.q.push(at + IRQ_LATENCY, Ev::Softirq(ring.0));
                    }
                }
                RxOutcome::DroppedRingFull | RxOutcome::DroppedFlush => {}
            },
            Ev::Softirq(ring) => self.softirq(ring),
            Ev::TaskRun(tid) => self.task_run(tid),
            Ev::Think(cid) => {
                let pkts = self.clients.on_think(self.now, cid);
                for p in pkts {
                    self.send_to_server(p, self.now + PROP_DELAY);
                }
            }
            Ev::Timeout(cid) => {
                if let Some(fin) = self.clients.on_timeout(self.now, CConnId::from(cid)) {
                    self.send_to_server(fin, self.now + PROP_DELAY);
                }
            }
            Ev::TxComplete(conn) => {
                if self.k.has_conn(conn) {
                    let core = self.k.conn(conn).rx_core;
                    let start = self.cores.start_time(core, self.now);
                    let d = ops::tx_complete(&mut self.k, core, start, conn);
                    self.cores.run(core, start, d);
                }
            }
            Ev::ToClient(cid, handle) => {
                let cid = CConnId::from(cid);
                let pkt = self.pkts.take(handle);
                let r = self.clients.on_server_packet(self.now, cid, &pkt);
                for p in r.send {
                    self.send_to_server(p, self.now + PROP_DELAY);
                }
                if let Some(t) = r.think_until {
                    self.q.push(t, Ev::Think(cid));
                }
            }
            Ev::Balance => {
                if let Some(groups) = self.nic.steering.groups_mut() {
                    let charged = self.listen.balance_tick(&mut self.k, groups, self.now);
                    for (core, cyc) in charged {
                        let start = self.cores.start_time(core, self.now);
                        self.exec(core, start, cyc);
                    }
                }
                self.q
                    .push(self.now + self.cfg.migrate_interval.max(ms(1)), Ev::Balance);
            }
            Ev::SchedBalance => {
                // The Linux process load balancer: unpinned (lighttpd)
                // processes migrate away from cores monopolized by the
                // batch job's runnable make threads (§4.2: the balancer
                // "migrates processes between cores when it detects a
                // load imbalance"). Pinned Apache processes never move.
                let hogged: Vec<bool> = (0..self.cfg.cores)
                    .map(|i| {
                        self.hog
                            .as_ref()
                            .is_some_and(|j| j.runnable_on(CoreId(i as u16)))
                    })
                    .collect();
                if hogged.iter().any(|h| *h) {
                    let mut moved = 0;
                    for tid in 0..self.tasks.len() as u32 {
                        if moved >= 4 {
                            break;
                        }
                        let t = &self.tasks[tid as usize];
                        if t.pinned || !hogged[t.core.index()] {
                            continue;
                        }
                        // The lowest-numbered non-hogged core: the model
                        // keeps no run queues, so every process goes there
                        // (Linux would spread them; EXPERIMENTS.md, Known
                        // deviations).
                        let Some(dest) = (0..self.cfg.cores).find(|i| !hogged[*i]) else {
                            break;
                        };
                        let dest = CoreId(dest as u16);
                        let old = self.tasks[tid as usize].core;
                        self.tasks[tid as usize].core = dest;
                        if self.tasks[tid as usize].sleeping {
                            self.lanes[old.index()]
                                .sleep_acceptors
                                .retain(|x| *x != tid);
                            self.lanes[dest.index()].sleep_acceptors.push(tid);
                        }
                        moved += 1;
                    }
                }
                self.q.push(self.now + ms(10), Ev::SchedBalance);
            }
            Ev::Hog(core) => {
                // The batch job never blocks the event timeline: softirqs
                // preempt it and app tasks time-slice against it (the
                // dilation in `exec`). Everything left — true idle time —
                // is the job's. Each poll scavenges the idle wall time
                // since the previous poll.
                let c = CoreId(core);
                if self.hog.as_ref().is_none_or(|job| job.is_finished()) {
                    return;
                }
                let busy = self.cores.core(c).busy_cycles;
                let (seen_busy, seen_wall) = self.lanes[c.index()].hog_seen;
                let wall = self.now;
                let busy_delta = busy.saturating_sub(seen_busy);
                let idle = (wall - seen_wall).saturating_sub(busy_delta);
                self.lanes[c.index()].hog_seen = (busy, wall);
                if idle > 0 {
                    if let Some(job) = &mut self.hog {
                        job.credit(c, idle, wall);
                    }
                }
                self.q.push(self.now + crate::batch::SLICE, Ev::Hog(core));
            }
            Ev::MeasureStart => {
                self.measuring = true;
                self.k.reset_measurement();
                self.clients.start_measurement();
                self.cores.reset_accounting();
                for lane in &mut self.lanes {
                    lane.hog_seen.0 = 0;
                }
                self.served = 0;
                self.affinity_served = 0;
                self.base_listen = self.listen.stats();
                self.base_nic_drops = self.nic.drops_ring_full + self.nic.drops_flush;
                self.base_wire_bytes = self.nic.wire.bytes;
            }
            Ev::PollAccept(core_idx) => {
                let core = CoreId(core_idx);
                // Busy-polling acceptor: probe the local queue instead of
                // waiting for the enqueue-side wakeup. A hit wakes the
                // core's sleeping acceptor; a miss just burns the probe.
                if self.listen.queued_on(core) > 0 {
                    if let Some(tid) = self.lanes[core.index()].sleep_acceptors.pop() {
                        let t = &mut self.tasks[tid as usize];
                        t.sleeping = false;
                        t.just_woken = true;
                        let run_at = self.cores.start_time(core, self.now);
                        self.schedule_task(tid, run_at);
                    }
                } else {
                    let start = self.cores.start_time(core, self.now);
                    self.cores.run(core, start, BUSY_POLL_PROBE);
                }
                if self.now < self.end_at {
                    self.q
                        .push(self.now + BUSY_POLL_INTERVAL, Ev::PollAccept(core_idx));
                }
            }
        }
    }

    /// Dispatches one popped event: advances the clock, folds the
    /// fingerprint, runs the handler. This is the loop body shared by
    /// [`Runner::run`] and [`Runner::run_until`].
    fn step_event(&mut self, t: Cycles, ev: Ev) {
        self.now = t;
        if sim::fingerprint::ENABLED {
            self.fold_event(t, &ev);
        }
        self.events_executed += 1;
        self.handle(ev);
    }

    /// Advances the run to (but not past) `bound`, dispatching every
    /// queued event strictly before `min(bound, end_at)` in canonical
    /// order. Interleaving any sequence of `run_until` calls with a final
    /// [`Runner::run`] executes exactly the event sequence a straight
    /// `run` would; simbench times its runs as such slices.
    pub fn run_until(&mut self, bound: Cycles) {
        // The bounded peek keeps the wheel short of `bound`, so an event
        // pushed between slices (at a time >= the previous bound but
        // before a far-future housekeeping event) is filed at its own
        // time; an unbounded peek could advance the wheel past it and
        // clamp it.
        let bound = bound.min(self.end_at);
        while self.q.peek_time_before(bound).is_some() {
            let (t, ev) = self.q.pop().expect("peeked a nonempty queue");
            self.step_event(t, ev);
        }
    }

    /// Live (unfinished) client connections.
    #[must_use]
    pub fn clients_live(&self) -> usize {
        self.clients.live()
    }

    /// Runs the simulation to completion and returns the measurements.
    #[must_use]
    pub fn run(mut self) -> RunResult {
        // A hog-job run continues past the window until the job finishes,
        // so its runtime can be reported; the window's rates are taken
        // when the loop first reaches its end.
        let hard_stop = self.end_at + sim::time::secs(30);
        let mut window = None;
        while let Some((t, ev)) = self.q.pop() {
            if t >= self.end_at {
                window.get_or_insert_with(|| self.window());
                let job_pending = self.hog.as_ref().is_some_and(|j| !j.is_finished());
                if !job_pending || t >= hard_stop {
                    self.now = t;
                    break;
                }
                // Keep only what the job needs: drop client arrivals.
                if matches!(ev, Ev::Arrival) {
                    continue;
                }
            }
            self.step_event(t, ev);
        }
        let window = window.unwrap_or_else(|| self.window());
        self.finalize(window)
    }

    /// The window's rates at the current state.
    fn window(&self) -> Window {
        // Busy accounting was reset at window start.
        let idle_frac = self.cores.idle_fraction(self.cfg.measure, self.cfg.cores);
        let (now, base) = (self.listen.stats(), self.base_listen);
        let listen_stats = affinity_accept::listen::ListenStats {
            enqueued: now.enqueued - base.enqueued,
            dropped_overflow: now.dropped_overflow - base.dropped_overflow,
            accepts_local: now.accepts_local - base.accepts_local,
            accepts_stolen: now.accepts_stolen - base.accepts_stolen,
            flow_migrations: now.flow_migrations - base.flow_migrations,
        };
        Window {
            served: self.served,
            affinity_served: self.affinity_served,
            idle_frac,
            drops_nic: self.nic.drops_ring_full + self.nic.drops_flush - self.base_nic_drops,
            perf: self.k.perf.clone(),
            lockstat: self.k.lockstat.clone(),
            listen_stats,
            wire_bytes: self.nic.wire.bytes - self.base_wire_bytes,
        }
    }

    /// Computes the end-of-run measurements from the window's, and the
    /// audits at the current clock.
    fn finalize(mut self, w: Window) -> RunResult {
        let window = self.cfg.measure;
        let secs = sim::time::to_secs(window);
        let served = w.served;
        let rps = served as f64 / secs;
        let stats_now = self.listen.stats();
        self.k.cache.fold_all_live();
        let cacheline = self.k.cache.dprof.cacheline_stats();
        let wire_util = (w.wire_bytes as f64 * 1.92) / window as f64;

        let ring_audits: Vec<RingAudit> = self
            .nic
            .rings()
            .map(|r| RingAudit {
                enqueued: r.enqueued,
                dequeued: r.dequeued,
                residual: r.len() as u64,
                dropped: r.dropped,
            })
            .collect();
        let busy_of = |c: usize| self.cores.core(CoreId(c as u16)).busy_cycles;
        let audit = RunAudit {
            client: ClientAudit {
                started: self.clients.total_started,
                completed: self.clients.total_completed,
                timed_out: self.clients.total_timeouts,
                live: self.clients.live() as u64,
            },
            listen: ListenAudit {
                enqueued: stats_now.enqueued,
                accepts_local: stats_now.accepts_local,
                accepts_stolen: stats_now.accepts_stolen,
                dropped_overflow: stats_now.dropped_overflow,
                queued_residual: self.listen.total_queued() as u64,
                runner_accepts: self.accepts_seen,
            },
            kernel: KernelAudit {
                created: self.k.conns_created(),
                removed: self.k.conns_removed(),
                live: self.k.live_conns() as u64,
                est_len: self.k.est.len() as u64,
            },
            packets: PacketAudit {
                offered: self.nic.rx_offered,
                enqueued: ring_audits.iter().map(|r| r.enqueued).sum(),
                dequeued: ring_audits.iter().map(|r| r.dequeued).sum(),
                residual: ring_audits.iter().map(|r| r.residual).sum(),
                drops_ring_full: self.nic.drops_ring_full,
                drops_flush: self.nic.drops_flush,
                dispatched: self.dispatched,
                rings: ring_audits,
            },
            cycles: CycleAudit {
                cores: self.cfg.cores as u64,
                window,
                span: self
                    .now
                    .saturating_sub(self.cfg.start_at + self.cfg.warmup)
                    .max(window),
                busy_window: (0..self.cfg.cores).map(|c| busy_of(c).min(window)).sum(),
                busy_total: (0..self.cfg.cores).map(busy_of).sum(),
                busy_max_core: (0..self.cfg.cores).map(busy_of).max().unwrap_or(0),
            },
            served: self.served,
            perf_requests: self.k.perf.requests,
            events_pending: self.q.len() as u64,
            reqs_created: self.k.reqs.created(),
            reqs_residual: self.k.reqs.len() as u64,
            cacheline: cacheline.totals(),
            cacheline_active: cacheline.enabled,
        };

        // Recycle the queue and slab (reset, capacity kept) so the next
        // run on this thread starts warm.
        let mut q = std::mem::replace(&mut self.q, EventQueue::new());
        let cascaded = q.cascaded();
        let mut pkts = std::mem::take(&mut self.pkts);
        q.reset();
        pkts.reset();
        Q_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < Q_POOL_MAX {
                pool.push((q, pkts));
            }
        });

        RunResult {
            rps,
            rps_per_core: rps / self.cfg.cores as f64,
            served,
            affinity_frac: if served == 0 {
                0.0
            } else {
                w.affinity_served as f64 / served as f64
            },
            idle_frac: w.idle_frac,
            drops_overflow: w.listen_stats.dropped_overflow,
            drops_nic: w.drops_nic,
            latency: self.clients.latencies.clone(),
            conns_completed: self.clients.completed,
            timeouts: self.clients.timeouts,
            perf: w.perf,
            lockstat: w.lockstat,
            listen_stats: w.listen_stats,
            batch_runtime: self.hog.as_ref().map(|j| j.runtime(self.now)),
            migrations: w.listen_stats.flow_migrations,
            wire_util: wire_util.min(1.0),
            fingerprint: if sim::fingerprint::ENABLED {
                self.fingerprint.value()
            } else {
                0
            },
            events_executed: self.events_executed,
            cascaded,
            audit,
            timeline: self.timeline,
            cacheline,
            kernel: self.k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(listen: ListenKind, cores: usize, rate: f64) -> RunConfig {
        let mut cfg = RunConfig::new(
            Machine::amd48(),
            cores,
            listen,
            ServerKind::apache(),
            Workload::base(),
            rate,
        );
        cfg.warmup = ms(60);
        cfg.measure = ms(120);
        cfg.tracked_files = 200;
        cfg
    }

    #[test]
    fn ev_fits_its_budget() {
        assert!(std::mem::size_of::<Ev>() <= 16, "Ev grew");
    }

    #[test]
    fn light_load_is_served_without_drops() {
        let cfg = quick_cfg(ListenKind::Affinity, 4, 2_000.0);
        let r = Runner::new(cfg).run();
        assert!(r.served > 200, "served {}", r.served);
        assert_eq!(r.drops_overflow, 0);
        assert_eq!(r.timeouts, 0);
        assert!(r.idle_frac > 0.2, "idle {}", r.idle_frac);
    }

    #[test]
    fn affinity_run_preserves_affinity() {
        let cfg = quick_cfg(ListenKind::Affinity, 4, 2_000.0);
        let r = Runner::new(cfg).run();
        assert!(
            r.affinity_frac > 0.95,
            "affinity fraction {}",
            r.affinity_frac
        );
    }

    #[test]
    fn fine_run_destroys_affinity() {
        let cfg = quick_cfg(ListenKind::Fine, 4, 2_000.0);
        let r = Runner::new(cfg).run();
        assert!(
            r.affinity_frac < 0.5,
            "affinity fraction {}",
            r.affinity_frac
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = Runner::new(quick_cfg(ListenKind::Affinity, 2, 1_000.0)).run();
        let b = Runner::new(quick_cfg(ListenKind::Affinity, 2, 1_000.0)).run();
        assert_eq!(a.served, b.served);
        assert_eq!(a.conns_completed, b.conns_completed);
    }

    #[test]
    fn lighttpd_server_works() {
        let mut cfg = quick_cfg(ListenKind::Affinity, 4, 2_000.0);
        cfg.server = ServerKind::lighttpd();
        cfg.app_cycles = cfg.server.app_cycles();
        let r = Runner::new(cfg).run();
        assert!(r.served > 200, "served {}", r.served);
        assert!(r.affinity_frac > 0.9, "affinity {}", r.affinity_frac);
    }

    #[test]
    fn overload_drops_but_keeps_serving() {
        let cfg = quick_cfg(ListenKind::Stock, 2, 200_000.0);
        let r = Runner::new(cfg).run();
        assert!(r.served > 0);
        assert!(
            r.drops_overflow + r.drops_nic > 0,
            "expected drops under overload"
        );
    }
}
