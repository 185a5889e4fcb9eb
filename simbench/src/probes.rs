//! Layer probes: host time per call of each layer's public entry points,
//! driven from outside with inputs shaped by one workload's run.
//!
//! Every probe draws its inputs from a seeded RNG before timing, runs
//! [`BATCHES`] timed batches under trace spans, and reports the median
//! nanoseconds per call. Probes that reach into `mem::cache` (TCP ops,
//! listen socket) run on a kernel with the dprof-v2 ledger on, so the
//! line touches of each timed section are counted; their figures are self
//! time: inclusive time minus touches × `mem.cache.access_ns`. Under the
//! `fast` feature the ledger is compiled out and those figures are
//! `None`.

use crate::trace::Tracer;
use affinity_accept::{
    AcceptOutcome, AckOutcome, AffinityAccept, FineAccept, ListenConfig, ListenSocket, StockAccept,
};
use app::client::Clients;
use app::{ListenKind, ServerKind, Workload as ClientWorkload};
use mem::{FieldTag, ObjId};
use nic::{FlowGroupTable, FlowTuple, Packet, PacketKind, PerFlowTable, RingId, Steering};
use sim::rng::SimRng;
use sim::time::{ms, secs, us, Cycles};
use sim::topology::{CoreId, Machine};
use sim::EventQueue;
use std::hint::black_box;
use std::time::Instant;
use tcp::kernel::TaskObjs;
use tcp::{ops, ConnId, Kernel};

/// Timed batches per probe; the median batch sets the figure.
const BATCHES: usize = 7;
/// Live populations the probes pre-build are capped here, bounding probe
/// memory and set-up time on the largest workloads.
const MAX_LIVE: usize = 30_000;
/// Connections per batch of the kernel-side probes.
const CONNS: usize = 400;

/// What shapes a workload's probes, read off its run.
#[derive(Debug, Clone)]
pub struct Shape {
    pub machine: Machine,
    pub cores: usize,
    pub listen: ListenKind,
    pub server: ServerKind,
    pub client: ClientWorkload,
    pub tracked_files: usize,
    pub app_cycles: Cycles,
    /// Whether the NIC steers per flow (Twenty) rather than by flow group.
    pub per_flow: bool,
    /// Connections in the kernel table at the end of the run.
    pub live_conns: usize,
    /// Live client connections at the end of the run.
    pub clients_live: usize,
    /// Events pending at the end of the run.
    pub queue_depth: usize,
    /// 1 − affinity_frac: the share of work done off the connection's
    /// home core.
    pub remote_frac: f64,
    pub seed: u64,
}

impl Shape {
    fn rings(&self) -> usize {
        self.cores.min(self.machine.total_rings())
    }

    fn rng(&self, salt: u64) -> SimRng {
        SimRng::new(self.seed ^ salt)
    }

    fn any_core(&self, rng: &mut SimRng) -> CoreId {
        CoreId(rng.index(self.cores) as u16)
    }

    /// The core work for a connection homed on `home` runs on.
    fn app_core(&self, rng: &mut SimRng, home: CoreId) -> CoreId {
        if self.cores > 1 && rng.chance(self.remote_frac) {
            CoreId(((home.index() + 1 + rng.index(self.cores - 1)) % self.cores) as u16)
        } else {
            home
        }
    }
}

fn tuple(i: usize) -> FlowTuple {
    FlowTuple::client(
        0x0c00_0000u32.wrapping_add(i as u32),
        1024 + (i % 60_000) as u16,
        80,
    )
}

/// One timed section: calls made, ledger line touches, host nanoseconds.
struct Batch {
    calls: u64,
    touches: u64,
    ns: f64,
}

/// Nanoseconds `f` took, with its result.
fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e9)
}

/// Runs `batch` [`BATCHES`] times, each under a span; returns the median
/// `(ns per call, touches per call)`.
fn timed(t: &mut Tracer, name: &str, mut batch: impl FnMut() -> Batch) -> (f64, f64) {
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut touches = Vec::with_capacity(BATCHES);
    for i in 0..BATCHES {
        let span = t.begin(format!("probe {name} #{i}"), "probe");
        let b = batch();
        t.end(span);
        t.arg(span, "calls", b.calls);
        t.arg(span, "timed_ns", b.ns);
        let calls = b.calls.max(1) as f64;
        per_call.push(b.ns / calls);
        touches.push(b.touches as f64 / calls);
    }
    (
        crate::stats::median(&per_call),
        crate::stats::median(&touches),
    )
}

fn touches(k: &Kernel) -> u64 {
    k.cache.dprof.cacheline_stats().totals().touches
}

/// Self nanoseconds per call: inclusive minus the cache model's share.
fn self_ns((ns, touches): (f64, f64), access_ns: Option<f64>) -> Option<f64> {
    access_ns.map(|a| ns - touches * a)
}

/// `sim.events`: a hold pattern at the run's queue depth with the
/// runner's mix of short (wire, softirq, task) and long (think, timeout)
/// offsets. Returns `(push_ns, pop_ns, peek_before_ns)`; the peek is
/// timed inside `run_until`'s loop (peek, pop, push) less a pop and a
/// push.
pub fn event_queue(t: &mut Tracer, shape: &Shape) -> (f64, f64, f64) {
    const OPS: usize = 100_000;
    let depth = shape.queue_depth.clamp(256, MAX_LIVE);
    let mut rng = shape.rng(0x5E7E);
    let offsets: Vec<Cycles> = (0..OPS)
        .map(|_| match rng.below(100) {
            0..=84 => rng.range(1, us(100)),
            85..=96 => rng.range(ms(1), ms(100)),
            _ => secs(10),
        })
        .collect();
    let mut q: EventQueue<[u64; 2]> = EventQueue::new();
    let mut now: Cycles = 0;
    for (i, off) in offsets.iter().cycle().take(depth).enumerate() {
        q.push(now + off, [i as u64, 0]);
    }
    // Each push batch is popped back off untimed (and each pop batch
    // pushed on untimed first), so every batch runs between the run's
    // depth and OPS above it.
    let push_all = |q: &mut EventQueue<[u64; 2]>, now: Cycles| {
        for (i, off) in offsets.iter().enumerate() {
            q.push(now + off, [i as u64, 1]);
        }
    };
    let pop_all = |q: &mut EventQueue<[u64; 2]>, now: &mut Cycles| {
        for _ in 0..OPS {
            let (at, ev) = q.pop().expect("pushed before");
            *now = at;
            black_box(ev);
        }
    };
    let (push, _) = timed(t, "sim.events push", || {
        let ((), ns) = clock(|| push_all(&mut q, now));
        pop_all(&mut q, &mut now);
        Batch {
            calls: OPS as u64,
            touches: 0,
            ns,
        }
    });
    let (pop, _) = timed(t, "sim.events pop", || {
        push_all(&mut q, now);
        let ((), ns) = clock(|| pop_all(&mut q, &mut now));
        Batch {
            calls: OPS as u64,
            touches: 0,
            ns,
        }
    });
    let (cycle, _) = timed(t, "sim.events peek_before+pop+push", || {
        let ((), ns) = clock(|| {
            for off in &offsets {
                black_box(q.peek_time_before(now + us(50)));
                let (at, ev) = q.pop().expect("hold pattern keeps the queue full");
                now = at;
                q.push(now + off, ev);
            }
        });
        Batch {
            calls: OPS as u64,
            touches: 0,
            ns,
        }
    });
    (push, pop, (cycle - pop - push).max(0.0))
}

/// The socket accesses of one request in `tcp::ops` order, as
/// `(on the application core, tag, write)`: `data_rx` on the receive
/// core, `sys_read` and `sys_writev` on the application core,
/// `tx_complete` back on the receive core. Each op starts on the lock
/// word.
const REQUEST_TOUCHES: [(bool, FieldTag, bool); 16] = [
    (false, FieldTag::GlobalNode, true),
    (false, FieldTag::BothRwByRx, true),
    (false, FieldTag::BothRwByApp, false),
    (false, FieldTag::BothRo, false),
    (false, FieldTag::RxOnly, true),
    (true, FieldTag::GlobalNode, true),
    (true, FieldTag::BothRwByApp, true),
    (true, FieldTag::BothRwByRx, false),
    (true, FieldTag::AppOnly, true),
    (true, FieldTag::GlobalNode, true),
    (true, FieldTag::BothRwByApp, true),
    (true, FieldTag::BothRwByRx, false),
    (true, FieldTag::BothRo, false),
    (true, FieldTag::AppOnly, true),
    (false, FieldTag::GlobalNode, true),
    (false, FieldTag::BothRwByApp, false),
];

/// A kernel for `shape` with the ledger on and the file set allocated.
fn kernel(shape: &Shape) -> Kernel {
    let mut k = Kernel::new(shape.machine.clone());
    k.enable_dprof_v2();
    k.init_files(shape.tracked_files);
    k
}

/// Median nanoseconds of the kernel-side probe; `None` without the
/// ledger.
#[derive(Debug, Clone, Copy)]
pub struct KernelNs {
    /// `mem.cache`: per line touch.
    pub access: Option<f64>,
    /// `tcp.ops` self time per request (receive, read, app, write,
    /// transmit completion).
    pub request: Option<f64>,
    /// `tcp.ops` self time per connection (accept, FIN, shutdown, close).
    pub conn: Option<f64>,
}

/// `tcp.ops` and `mem.cache`: connection lifecycles with the workload's
/// request pattern and server kind, next to the run's live population.
/// Each batch's requests are followed by a replay of their socket
/// accesses ([`REQUEST_TOUCHES`], once per request) on the same sockets
/// and cores, which prices a line touch where the ops make them; that
/// batch's self times subtract its own touches at that price. The
/// handshake ops run untimed; the listen probe times them.
pub fn kernel_ops(t: &mut Tracer, shape: &Shape) -> KernelNs {
    let mut k = kernel(shape);
    let fine = !matches!(shape.listen, ListenKind::Stock | ListenKind::Twenty);
    let tasks: Vec<TaskObjs> = (0..shape.cores)
        .map(|c| k.new_task_objs(CoreId(c as u16)))
        .collect();
    let apache = matches!(shape.server, ServerKind::ApacheWorker { .. });
    let mut rng = shape.rng(0x7C9);
    let mut at: Cycles = 0;
    let mut next = 0usize;
    let mut establish = |k: &mut Kernel, rng: &mut SimRng, at: Cycles| {
        next += 1;
        let rx = shape.any_core(rng);
        let (_, req) = ops::syn(k, rx, at, tuple(next), fine);
        let (_, conn, req_obj) = ops::ack_establish(k, rx, at, req, fine).expect("fresh request");
        (conn, req_obj, rx, shape.app_core(rng, rx))
    };
    for _ in 0..shape.live_conns.min(MAX_LIVE) {
        at += us(1);
        let (conn, req_obj, _, app) = establish(&mut k, &mut rng, at);
        ops::accept_established(&mut k, app, at, conn, req_obj);
    }
    let (mut access, mut request, mut conn) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..BATCHES {
        let fresh: Vec<_> = (0..CONNS)
            .map(|_| {
                at += us(1);
                establish(&mut k, &mut rng, at)
            })
            .collect();
        let span = t.begin(format!("probe tcp.ops + mem.cache #{i}"), "probe");
        let before = touches(&k);
        let (conns, accept_ns) = clock(|| {
            fresh
                .iter()
                .map(|&(conn, req_obj, rx, app)| {
                    ops::accept_established(&mut k, app, at, conn, req_obj);
                    (conn, rx, app)
                })
                .collect::<Vec<_>>()
        });
        let accept_touches = touches(&k) - before;
        let before = touches(&k);
        let mut requests = 0u64;
        let ((), request_ns) = clock(|| {
            for &(conn, rx, app) in &conns {
                for &b in &shape.client.batches {
                    for _ in 0..b {
                        at += us(20);
                        let file = (requests % 30_000) as u32;
                        ops::data_rx(&mut k, rx, at, conn, 300, file, None);
                        if apache {
                            ops::sys_futex_pair(&mut k, app, at, &tasks[app.index()]);
                            ops::sys_poll_conn(&mut k, app, at, &tasks[app.index()], conn);
                        } else {
                            ops::sys_epoll_wait(&mut k);
                        }
                        let (_, tags) = ops::sys_read(&mut k, app, at, conn);
                        for tag in tags {
                            ops::app_request(&mut k, app, tag as usize, shape.app_cycles);
                        }
                        ops::sys_writev(&mut k, app, at, conn, 950);
                        ops::rcu_tick(&mut k);
                        ops::tx_complete(&mut k, rx, at, conn);
                        requests += 1;
                    }
                    ops::data_ack_rx(&mut k, rx, at, conn);
                }
            }
        });
        let request_touches = touches(&k) - before;
        let socks: Vec<(ObjId, CoreId, CoreId)> = conns
            .iter()
            .map(|&(conn, rx, app)| (k.conn(conn).sock, rx, app))
            .collect();
        let per_conn = requests / CONNS as u64;
        let before = touches(&k);
        let ((), replay_ns) = clock(|| {
            for &(sock, rx, app) in &socks {
                for _ in 0..per_conn {
                    for (on_app, tag, write) in REQUEST_TOUCHES {
                        let core = if on_app { app } else { rx };
                        black_box(k.cache.access_tagged(core, sock, tag, write));
                    }
                }
            }
        });
        let replay_touches = touches(&k) - before;
        let before = touches(&k);
        let ((), teardown_ns) = clock(|| {
            for &(conn, rx, app) in &conns {
                at += us(20);
                ops::fin_rx(&mut k, rx, at, conn, None);
                ops::sys_shutdown(&mut k, app, at, conn);
                ops::sys_close(&mut k, app, at, conn);
                k.remove_conn(conn);
            }
        });
        let conn_touches = accept_touches + touches(&k) - before;
        t.end(span);
        t.arg(span, "requests", requests);
        if replay_touches > 0 {
            let a = replay_ns / replay_touches as f64;
            access.push(a);
            request.push((request_ns - request_touches as f64 * a) / requests as f64);
            conn.push((accept_ns + teardown_ns - conn_touches as f64 * a) / CONNS as f64);
        }
    }
    let med = |v: &[f64]| (!v.is_empty()).then(|| crate::stats::median(v));
    KernelNs {
        access: med(&access),
        request: med(&request),
        conn: med(&conn),
    }
}

/// Listen-socket self nanoseconds per call.
#[derive(Debug, Clone, Copy)]
pub struct ListenNs {
    pub syn: Option<f64>,
    pub ack: Option<f64>,
    pub accept: Option<f64>,
    pub balance: Option<f64>,
}

/// The kernel and listen socket of a workload, driven connection by
/// connection from the probe.
struct ListenRig<'a> {
    shape: &'a Shape,
    k: Kernel,
    sock: Box<dyn ListenSocket>,
    rng: SimRng,
    at: Cycles,
    next: usize,
}

impl<'a> ListenRig<'a> {
    fn new(shape: &'a Shape) -> Self {
        let mut k = kernel(shape);
        let cfg = ListenConfig::paper(shape.cores);
        let sock: Box<dyn ListenSocket> = match shape.listen {
            ListenKind::Stock | ListenKind::Twenty => Box::new(StockAccept::new(&mut k, cfg)),
            ListenKind::Fine => Box::new(FineAccept::new(&mut k, cfg)),
            ListenKind::Affinity | ListenKind::BusyPoll => {
                Box::new(AffinityAccept::new(&mut k, cfg))
            }
        };
        Self {
            shape,
            k,
            sock,
            rng: shape.rng(0x1157),
            at: 0,
            next: 0,
        }
    }

    fn tick(&mut self) -> Cycles {
        self.at += us(2);
        self.at
    }

    /// Fresh `(receive core, tuple)` pairs for one batch.
    fn plan(&mut self) -> Vec<(CoreId, FlowTuple)> {
        (0..CONNS)
            .map(|_| {
                self.next += 1;
                (self.shape.any_core(&mut self.rng), tuple(self.next))
            })
            .collect()
    }

    fn syns(&mut self, plan: &[(CoreId, FlowTuple)]) {
        for &(rx, tup) in plan {
            let at = self.tick();
            black_box(self.sock.on_syn(&mut self.k, rx, at, tup));
        }
    }

    /// Completes each handshake; returns the cores whose queues took them.
    fn acks(&mut self, plan: &[(CoreId, FlowTuple)]) -> Vec<CoreId> {
        let mut queued = Vec::with_capacity(plan.len());
        for &(rx, tup) in plan {
            let at = self.tick();
            if let (_, AckOutcome::Enqueued { queue_core, .. }) =
                self.sock.on_ack(&mut self.k, rx, at, tup)
            {
                queued.push(queue_core);
            }
        }
        queued
    }

    /// One accept attempt per core in `cores`; returns what was taken.
    fn accepts(&mut self, cores: &[CoreId]) -> Vec<(CoreId, ConnId, ObjId)> {
        let mut taken = Vec::with_capacity(cores.len());
        for &c in cores {
            let at = self.tick();
            if let AcceptOutcome::Accepted { item, .. } = self.sock.try_accept(&mut self.k, c, at) {
                taken.push((c, item.conn, item.req_obj));
            }
        }
        taken
    }

    fn close(&mut self, taken: Vec<(CoreId, ConnId, ObjId)>) {
        for (c, conn, req_obj) in taken {
            let at = self.tick();
            ops::accept_established(&mut self.k, c, at, conn, req_obj);
            ops::sys_close(&mut self.k, c, at, conn);
            self.k.remove_conn(conn);
        }
    }

    /// Accepts and closes everything still queued, so every batch starts
    /// from empty queues.
    fn drain(&mut self) {
        for c in 0..self.shape.cores {
            let core = CoreId(c as u16);
            while self.sock.queued_on(core) > 0 {
                let taken = self.accepts(&[core]);
                if taken.is_empty() {
                    break;
                }
                self.close(taken);
            }
        }
    }

    /// Timed section `f` with its ledger touches.
    fn measure(&mut self, calls: u64, f: impl FnOnce(&mut Self)) -> Batch {
        let before = touches(&self.k);
        let ((), ns) = clock(|| f(self));
        Batch {
            calls,
            touches: touches(&self.k) - before,
            ns,
        }
    }
}

/// `core.listen`: SYN, handshake ACK and accept through the workload's
/// listen socket, accepts taken on the queue's core except for a
/// `remote_frac` share; plus the periodic balancer tick.
pub fn listen(t: &mut Tracer, shape: &Shape, access_ns: Option<f64>) -> ListenNs {
    let mut rig = ListenRig::new(shape);
    let syn = timed(t, "core.listen syn", || {
        let plan = rig.plan();
        let b = rig.measure(CONNS as u64, |r| r.syns(&plan));
        rig.acks(&plan);
        rig.drain();
        b
    });
    let ack = timed(t, "core.listen ack", || {
        let plan = rig.plan();
        rig.syns(&plan);
        let b = rig.measure(CONNS as u64, |r| {
            r.acks(&plan);
        });
        rig.drain();
        b
    });
    let accept = timed(t, "core.listen accept", || {
        let plan = rig.plan();
        rig.syns(&plan);
        let queued = rig.acks(&plan);
        let cores: Vec<CoreId> = queued
            .iter()
            .map(|&q| shape.app_core(&mut rig.rng, q))
            .collect();
        let mut taken = Vec::new();
        let b = rig.measure(cores.len() as u64, |r| taken = r.accepts(&cores));
        rig.close(taken);
        rig.drain();
        b
    });
    let mut groups = FlowGroupTable::new(shape.rings(), nic::steering::DEFAULT_FLOW_GROUPS);
    let balance = timed(t, "core.listen balance", || {
        rig.measure(50, |r| {
            for _ in 0..50 {
                r.at += ms(100);
                black_box(r.sock.balance_tick(&mut r.k, &mut groups, r.at));
            }
        })
    });
    ListenNs {
        syn: self_ns(syn, access_ns),
        ack: self_ns(ack, access_ns),
        accept: self_ns(accept, access_ns),
        balance: self_ns(balance, access_ns),
    }
}

const STEER_OPS: usize = 200_000;

/// Random client flows for the steering probes.
fn flows(shape: &Shape) -> Vec<FlowTuple> {
    let mut rng = shape.rng(0x57EE);
    (0..STEER_OPS)
        .map(|i| FlowTuple::client(rng.next_u64() as u32, 1024 + (i % 60_000) as u16, 80))
        .collect()
}

/// `nic.steering`: route lookups on `shape`'s steering mode, with the
/// run's live flows installed when it steers per flow. Returns ns per
/// lookup.
pub fn route(t: &mut Tracer, shape: &Shape) -> f64 {
    let rings = shape.rings();
    let tuples = flows(shape);
    let mut steer = if shape.per_flow {
        Steering::per_flow(rings, nic::steering::FDIR_DEFAULT_CAPACITY)
    } else {
        Steering::flow_groups(rings, nic::steering::DEFAULT_FLOW_GROUPS)
    };
    if let Some(table) = steer.per_flow_mut() {
        for (i, tup) in tuples
            .iter()
            .take(shape.live_conns.min(MAX_LIVE))
            .enumerate()
        {
            table.insert(0, tup.hash(), RingId((i % rings) as u16));
        }
    }
    timed(t, "nic.steering route", || {
        let ((), ns) = clock(|| {
            for tup in &tuples {
                black_box(steer.route(tup, rings));
            }
        });
        Batch {
            calls: STEER_OPS as u64,
            touches: 0,
            ns,
        }
    })
    .0
}

/// `nic.steering`: FDir per-flow inserts, as Twenty-Policy makes on
/// transmit. Returns ns per insert.
pub fn fdir_insert(t: &mut Tracer, shape: &Shape) -> f64 {
    let rings = shape.rings();
    let tuples = flows(shape);
    let mut table = PerFlowTable::new(rings, nic::steering::FDIR_DEFAULT_CAPACITY);
    let mut now: Cycles = 0;
    timed(t, "nic.steering insert", || {
        let ((), ns) = clock(|| {
            for (i, tup) in tuples.iter().enumerate() {
                now += us(1);
                black_box(table.insert(now, tup.hash(), RingId((i % rings) as u16)));
            }
        });
        Batch {
            calls: STEER_OPS as u64,
            touches: 0,
            ns,
        }
    })
    .0
}

/// `app.client`: whole client connection lifecycles (handshake, each
/// response's segments, thinks) against a fleet holding the run's live
/// population. Returns `(ns per client call, ns per connection)`.
pub fn client(t: &mut Tracer, shape: &Shape) -> (f64, f64) {
    const CLIENT_CONNS: usize = 2_000;
    let mut fleet = Clients::new(shape.client.clone(), shape.seed);
    let mut now: Cycles = 0;
    for _ in 0..shape.clients_live.min(MAX_LIVE) {
        fleet.start_conn(now);
    }
    let mut per_conn = Vec::new();
    let (packet_ns, _) = timed(t, "app.client lifecycle", || {
        let mut calls = 0u64;
        let ((), ns) = clock(|| {
            for _ in 0..CLIENT_CONNS {
                now += us(10);
                let (cid, syn) = fleet.start_conn(now);
                let synack = Packet::new(syn.tuple, PacketKind::SynAck, 0);
                let data = Packet::new(syn.tuple, PacketKind::Data, tcp::ops::MSS);
                let mut r = fleet.on_server_packet(now, cid, &synack);
                calls += 2;
                while !r.done {
                    if r.think_until.is_some() {
                        black_box(fleet.on_think(now, cid));
                        calls += 1;
                    }
                    r = fleet.on_server_packet(now, cid, &data);
                    calls += 1;
                }
            }
        });
        per_conn.push(ns / CLIENT_CONNS as f64);
        Batch {
            calls,
            touches: 0,
            ns,
        }
    });
    (packet_ns, crate::stats::median(&per_conn))
}
