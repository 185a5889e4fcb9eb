//! The kernel data-path operations.
//!
//! Each function models one kernel entry-point invocation on a given core
//! at a given simulated time: it performs the operation's structural
//! effects (allocate/free objects, move a request between tables, queue a
//! segment), touches the operation's fields of the affected objects in the
//! cache model *on that core*, charges the entry's performance counters,
//! and returns the invocation's duration in cycles.
//!
//! The locking policy is the caller's business where the paper varies it
//! (the listen-socket path); operations on structures whose locking the
//! paper keeps fixed (per-bucket established/request locks, per-connection
//! locks) take those locks here. `fine_locks: false` lets Stock-Accept
//! skip the request-table bucket locks it replaces with the single listen
//! socket lock.

use crate::conn::{ConnId, ConnState, RxSegment};
use crate::costs;
use crate::kernel::{charge_parts, Kernel, TaskObjs};
use crate::req::ReqId;
use mem::cache::Access;
use mem::layout::FieldTag;
use mem::{CacheModel, DataType, ObjId};
use nic::FlowTuple;
use sim::time::Cycles;
use sim::topology::CoreId;

/// TCP maximum segment payload on the simulated wire.
pub const MSS: u32 = 1448;

/// Hold time of a hash-bucket lock (chain walk + link update).
const BUCKET_LOCK_HOLD: Cycles = 500;
/// Baseline hold time of the per-connection lock beyond tracked accesses.
const CONN_LOCK_HOLD_BASE: Cycles = 1_500;

/// Touches up to `max_n` fields of `obj` carrying `tag`.
fn access_some(
    cache: &mut CacheModel,
    core: CoreId,
    obj: ObjId,
    tag: FieldTag,
    write: bool,
    max_n: usize,
) -> Access {
    cache.access_tagged_first(core, obj, tag, write, max_n)
}

/// Cost of taking the sock lock: the lock word itself is a cache line
/// written by every locker, so it ping-pongs whenever packet side and
/// application side run on different cores.
fn lock_word_access(cache: &mut CacheModel, core: CoreId, sock: ObjId) -> Access {
    access_some(cache, core, sock, FieldTag::GlobalNode, true, 1)
}

/// The wakeup a softirq performs when new work arrives for a sleeping
/// task: it writes the task's scheduler fields and pokes its stack. Under
/// Fine-Accept the waker usually sits on a different core than the task —
/// these writes are what make `schedule`'s Table 3 row expensive there.
fn wake_access(cache: &mut CacheModel, core: CoreId, target: &TaskObjs) -> Access {
    let mut acc = cache.access_tagged(core, target.ts, FieldTag::BothRwByRx, true);
    acc.add(access_some(
        cache,
        core,
        target.stack,
        FieldTag::BothRwByRx,
        true,
        4,
    ));
    acc.add(access_some(
        cache,
        core,
        target.waitq,
        FieldTag::BothRwByRx,
        true,
        1,
    ));
    acc
}

/// SYN arrival (softirq): allocates a request socket, inserts it into the
/// request hash table, and emits a SYN-ACK (the caller transmits it).
pub fn syn(
    k: &mut Kernel,
    core: CoreId,
    at: Cycles,
    tuple: FlowTuple,
    fine_locks: bool,
) -> (Cycles, ReqId) {
    let mut tracked = Access::default();
    let (obj, cost) = k.slab.alloc(core, DataType::TcpRequestSock, &mut k.cache);
    tracked.add(cost);
    tracked.add(k.cache.access_tagged(core, obj, FieldTag::BothRwByRx, true));
    tracked.add(k.cache.access_tagged(core, obj, FieldTag::RxOnly, true));
    tracked.add(k.cache.access_tagged(core, obj, FieldTag::BothRo, false));
    let head = k.reqs.bucket_head(&tuple);
    tracked.add(
        k.cache
            .access_tagged(core, head, FieldTag::GlobalNode, true),
    );
    let mut spin = 0;
    let mut lock_overhead = 0;
    if fine_locks {
        let (_, w) = k
            .reqs
            .bucket_lock(&tuple)
            .run_locked(at, BUCKET_LOCK_HOLD, &mut k.lockstat);
        spin = w;
        lock_overhead = k.lockstat.op_overhead();
    }
    let id = k.reqs.insert(tuple, obj);
    let cycles = k.charge(costs::SOFTIRQ_SYN, tracked);
    (cycles + spin + lock_overhead, id)
}

/// Handshake-completing ACK (softirq): removes the request from the hash
/// table, creates the child `tcp_sock`, and inserts it into the
/// established table. Returns the new connection and the request-socket
/// object, which Linux parks on the accept queue as the child's handle.
///
/// Also allocates the child's small option/metadata block
/// (`slab:size-128`), recorded on the connection and consumed by
/// `accept()` — another object written packet-side and read app-side.
pub fn ack_establish(
    k: &mut Kernel,
    core: CoreId,
    at: Cycles,
    req: ReqId,
    fine_locks: bool,
) -> Option<(Cycles, ConnId, ObjId)> {
    let mut tracked = Access::default();
    let tuple = k.reqs.get(req)?.tuple;
    let mut spin = 0;
    let mut lock_overhead = 0;
    if fine_locks {
        let (_, w) = k
            .reqs
            .bucket_lock(&tuple)
            .run_locked(at, BUCKET_LOCK_HOLD, &mut k.lockstat);
        spin += w;
        lock_overhead += k.lockstat.op_overhead();
    }
    let head = k.reqs.bucket_head(&tuple);
    tracked.add(
        k.cache
            .access_tagged(core, head, FieldTag::GlobalNode, true),
    );
    let req_sock = k.reqs.remove(req)?;
    // Read the request state to build the child.
    tracked.add(
        k.cache
            .access_tagged(core, req_sock.obj, FieldTag::BothRwByRx, false),
    );
    tracked.add(
        k.cache
            .access_tagged(core, req_sock.obj, FieldTag::BothRo, false),
    );

    // Create the child socket and initialize the packet-side state.
    let (sock, cost) = k.slab.alloc(core, DataType::TcpSock, &mut k.cache);
    tracked.add(cost);
    tracked.add(
        k.cache
            .access_tagged(core, sock, FieldTag::BothRwByRx, true),
    );
    tracked.add(access_some(
        &mut k.cache,
        core,
        sock,
        FieldTag::RxOnly,
        true,
        5,
    ));
    tracked.add(k.cache.access_tagged(core, sock, FieldTag::BothRo, false));

    // Insert into the established table under its bucket lock.
    let (_, w) = k
        .est
        .bucket_lock(&tuple)
        .run_locked(at, BUCKET_LOCK_HOLD, &mut k.lockstat);
    spin += w;
    lock_overhead += k.lockstat.op_overhead();
    let est_head = k.est.bucket_head(&tuple);
    tracked.add(
        k.cache
            .access_tagged(core, est_head, FieldTag::GlobalNode, true),
    );
    tracked.add(
        k.cache
            .access_tagged(core, sock, FieldTag::GlobalNode, true),
    );

    let (meta, mcost) = k.slab.alloc(core, DataType::Slab128, &mut k.cache);
    tracked.add(mcost);
    tracked.add(
        k.cache
            .access_tagged(core, meta, FieldTag::BothRwByRx, true),
    );
    let conn = k.new_conn(tuple, sock, core);
    k.conn_mut(conn).meta = Some(meta);
    k.est.insert(tuple, conn);
    // Linking into the chain writes the neighbour's linkage fields — a
    // cross-core write whenever the neighbour lives on another core.
    if let Some(nb) = k.est.chain_neighbor(&tuple, conn) {
        let nb_sock = k.conn(nb).sock;
        tracked.add(access_some(
            &mut k.cache,
            core,
            nb_sock,
            FieldTag::GlobalNode,
            true,
            2,
        ));
    }
    let cycles = k.charge(costs::SOFTIRQ_ACK_EST, tracked);
    Some((cycles + spin + lock_overhead, conn, req_sock.obj))
}

/// Per-packet established-table lookup cost (bucket head + socket chain
/// node), shared by the data-path softirq handlers.
fn est_lookup_access(k: &mut Kernel, core: CoreId, conn: ConnId) -> Access {
    let c = k.conn(conn);
    let (tuple, sock) = (c.tuple, c.sock);
    let head = k.est.bucket_head(&tuple);
    let mut acc = k
        .cache
        .access_tagged(core, head, FieldTag::GlobalNode, false);
    acc.add(access_some(
        &mut k.cache,
        core,
        sock,
        FieldTag::GlobalNode,
        false,
        1,
    ));
    acc
}

/// Data segment arrival (softirq): allocates the `sk_buff` and data page,
/// updates the socket's receive state, queues the segment for `read()`,
/// and optionally wakes the owning task.
pub fn data_rx(
    k: &mut Kernel,
    core: CoreId,
    at: Cycles,
    conn: ConnId,
    payload: u32,
    tag: u32,
    wake: Option<&TaskObjs>,
) -> Cycles {
    let mut tracked = est_lookup_access(k, core, conn);
    let (skb, c1) = k.slab.alloc(core, DataType::SkBuff, &mut k.cache);
    tracked.add(c1);
    let (page, c2) = k.slab.alloc(core, DataType::Slab4096, &mut k.cache);
    tracked.add(c2);
    tracked.add(k.cache.access_tagged(core, skb, FieldTag::BothRwByRx, true));
    tracked.add(k.cache.access_tagged(core, skb, FieldTag::RxOnly, true));
    tracked.add(k.cache.access_tagged(core, skb, FieldTag::BothRo, true));
    tracked.add(k.cache.access_tagged(core, skb, FieldTag::GlobalNode, true));
    tracked.add(access_some(
        &mut k.cache,
        core,
        page,
        FieldTag::BothRwByRx,
        true,
        5,
    ));

    let (conns, p) = k.split();
    let conn_ref = conns.get_mut(&conn.0).expect("live connection");
    let sock = conn_ref.sock;
    tracked.add(lock_word_access(p.cache, core, sock));
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByRx, true),
    );
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByApp, false),
    );
    tracked.add(p.cache.access_tagged(core, sock, FieldTag::BothRo, false));
    tracked.add(access_some(p.cache, core, sock, FieldTag::RxOnly, true, 6));
    if let Some(t) = wake {
        tracked.add(wake_access(p.cache, core, t));
    }
    let hold = CONN_LOCK_HOLD_BASE + tracked.latency;
    let (_, spin) = conn_ref.lock.run_locked(at, hold, p.lockstat);
    let lock_overhead = p.lockstat.op_overhead();
    p.rx_segs.push_back(
        &mut conn_ref.rcv_queue,
        RxSegment {
            skb,
            page,
            payload,
            tag,
        },
    );
    let cycles = charge_parts(p.machine, p.perf, costs::SOFTIRQ_DATA, tracked);
    cycles + spin + lock_overhead
}

/// Bare ACK of transmitted data (softirq): releases the acknowledged
/// transmit buffers — on *this* core, which under Fine-Accept is not the
/// core that allocated them in `writev`.
pub fn data_ack_rx(k: &mut Kernel, core: CoreId, at: Cycles, conn: ConnId) -> Cycles {
    let mut tracked = est_lookup_access(k, core, conn);
    let (conns, p) = k.split();
    let conn_ref = conns.get_mut(&conn.0).expect("live connection");
    let sock = conn_ref.sock;
    // ACK processing walks the retransmit queue and updates congestion
    // state: it touches the full hot set of the socket.
    tracked.add(lock_word_access(p.cache, core, sock));
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByRx, true),
    );
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByApp, false),
    );
    tracked.add(p.cache.access_tagged(core, sock, FieldTag::BothRo, false));
    let hold = CONN_LOCK_HOLD_BASE + tracked.latency;
    let (_, spin) = conn_ref.lock.run_locked(at, hold, p.lockstat);
    let lock_overhead = p.lockstat.op_overhead();
    while let Some(chunk) = p.tx_bufs.pop_front(&mut conn_ref.tx_chunks) {
        tracked.add(
            p.cache
                .access_tagged(core, chunk, FieldTag::BothRwByApp, false),
        );
        tracked.add(p.slab.free(core, chunk, p.cache));
    }
    while let Some(skb) = p.tx_bufs.pop_front(&mut conn_ref.tx_skbs) {
        tracked.add(p.slab.free(core, skb, p.cache));
    }
    let cycles = charge_parts(p.machine, p.perf, costs::SOFTIRQ_DATA_ACK, tracked);
    cycles + spin + lock_overhead
}

/// Transmit-completion interrupt processing on the connection's ring
/// core: the device finished DMA, the driver frees the transmit `sk_buff`s
/// and releases write-memory accounting — state the application side
/// wrote. Without connection affinity this is a third cross-core
/// direction switch on every response.
pub fn tx_complete(k: &mut Kernel, core: CoreId, at: Cycles, conn: ConnId) -> Cycles {
    let _ = at;
    let (conns, p) = k.split();
    let Some(conn_ref) = conns.get_mut(&conn.0) else {
        return 300;
    };
    let sock = conn_ref.sock;
    let mut tracked = lock_word_access(p.cache, core, sock);
    // Release wmem accounting and socket write state the app dirtied.
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByApp, false),
    );
    while let Some(skb) = p.tx_bufs.pop_front(&mut conn_ref.tx_skbs) {
        tracked.add(
            p.cache
                .access_tagged(core, skb, FieldTag::BothRwByRx, false),
        );
        tracked.add(p.slab.free(core, skb, p.cache));
    }
    charge_parts(p.machine, p.perf, costs::SOFTIRQ_TX_COMPLETE, tracked)
}

/// FIN arrival (softirq): the client is done; optionally wakes the owner.
pub fn fin_rx(
    k: &mut Kernel,
    core: CoreId,
    at: Cycles,
    conn: ConnId,
    wake: Option<&TaskObjs>,
) -> Cycles {
    let mut tracked = est_lookup_access(k, core, conn);
    let (conns, p) = k.split();
    let conn_ref = conns.get_mut(&conn.0).expect("live connection");
    let sock = conn_ref.sock;
    tracked.add(lock_word_access(p.cache, core, sock));
    tracked.add(access_some(
        p.cache,
        core,
        sock,
        FieldTag::BothRwByRx,
        true,
        6,
    ));
    if let Some(t) = wake {
        tracked.add(wake_access(p.cache, core, t));
    }
    let hold = CONN_LOCK_HOLD_BASE + tracked.latency;
    let (_, spin) = conn_ref.lock.run_locked(at, hold, p.lockstat);
    let lock_overhead = p.lockstat.op_overhead();
    conn_ref.state = ConnState::Closing;
    let cycles = charge_parts(p.machine, p.perf, costs::SOFTIRQ_FIN, tracked);
    cycles + spin + lock_overhead
}

/// The post-dequeue half of `accept()`: reads and frees the request
/// socket, creates the file descriptor, and binds the connection to this
/// core. Charges `sys_accept4`, `sys_getsockname`, and `sys_fcntl`
/// (applications do all three per accepted connection).
pub fn accept_established(
    k: &mut Kernel,
    core: CoreId,
    at: Cycles,
    conn: ConnId,
    req_obj: ObjId,
) -> Cycles {
    let _ = at;
    let mut tracked = Access::default();
    // Reading the request socket the packet side wrote: the 100%-shared
    // object of Table 4 under Fine-Accept.
    tracked.add(
        k.cache
            .access_tagged(core, req_obj, FieldTag::BothRwByRx, false),
    );
    tracked.add(
        k.cache
            .access_tagged(core, req_obj, FieldTag::BothRo, false),
    );
    tracked.add(k.slab.free(core, req_obj, &mut k.cache));
    let (fd, cost) = k.slab.alloc(core, DataType::SocketFd, &mut k.cache);
    tracked.add(cost);
    tracked.add(k.cache.access_tagged(core, fd, FieldTag::GlobalNode, true));
    tracked.add(access_some(
        &mut k.cache,
        core,
        fd,
        FieldTag::AppOnly,
        true,
        4,
    ));
    let sock = k.conn(conn).sock;
    tracked.add(k.cache.access_tagged(core, sock, FieldTag::BothRo, false));
    // accept() reads the state the handshake path initialized (sequence
    // numbers, windows) — all dirty on the packet-side core.
    tracked.add(
        k.cache
            .access_tagged(core, sock, FieldTag::BothRwByRx, false),
    );
    if let Some(meta) = k.conn_mut(conn).meta.take() {
        tracked.add(
            k.cache
                .access_tagged(core, meta, FieldTag::BothRwByRx, false),
        );
        tracked.add(k.slab.free(core, meta, &mut k.cache));
    }
    let c = k.conn_mut(conn);
    c.app_core = Some(core);
    c.fd = Some(fd);
    let mut cycles = k.charge(costs::SYS_ACCEPT4, tracked);
    cycles += k.charge(costs::SYS_GETSOCKNAME, Access::default());
    cycles += k.charge(costs::SYS_FCNTL, Access::default());
    cycles
}

/// `read()` of pending request data: drains the receive queue, freeing
/// the packet buffers on this core. Returns the application tags of the
/// drained segments (the requested file indices).
pub fn sys_read(k: &mut Kernel, core: CoreId, at: Cycles, conn: ConnId) -> (Cycles, Vec<u32>) {
    let (conns, p) = k.split();
    let conn_ref = conns.get_mut(&conn.0).expect("live connection");
    let sock = conn_ref.sock;
    let mut tracked = lock_word_access(p.cache, core, sock);
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByApp, true),
    );
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByRx, false),
    );
    tracked.add(access_some(p.cache, core, sock, FieldTag::AppOnly, true, 4));
    let mut tags = Vec::new();
    for seg in p.rx_segs.iter(conn_ref.rcv_queue) {
        tags.push(seg.tag);
        tracked.add(
            p.cache
                .access_tagged(core, seg.skb, FieldTag::BothRwByRx, false),
        );
        tracked.add(
            p.cache
                .access_tagged(core, seg.skb, FieldTag::BothRo, false),
        );
        tracked.add(
            p.cache
                .access_tagged(core, seg.skb, FieldTag::GlobalNode, false),
        );
        tracked.add(access_some(
            p.cache,
            core,
            seg.page,
            FieldTag::BothRwByRx,
            false,
            5,
        ));
    }
    let hold = CONN_LOCK_HOLD_BASE + tracked.latency;
    let (_, spin) = conn_ref.lock.run_locked(at, hold, p.lockstat);
    let lock_overhead = p.lockstat.op_overhead();
    // Free the consumed buffers on the reading core (§2.2's remote
    // deallocation problem when that is not the allocating core).
    while let Some(seg) = p.rx_segs.pop_front(&mut conn_ref.rcv_queue) {
        tracked.add(p.slab.free(core, seg.skb, p.cache));
        tracked.add(p.slab.free(core, seg.page, p.cache));
    }
    let cycles = charge_parts(p.machine, p.perf, costs::SYS_READ, tracked);
    (cycles + spin + lock_overhead, tags)
}

/// `writev()` of an HTTP response: allocates send-buffer chunks and
/// transmit `sk_buff`s; returns the number of wire packets to transmit.
pub fn sys_writev(
    k: &mut Kernel,
    core: CoreId,
    at: Cycles,
    conn: ConnId,
    bytes: u32,
) -> (Cycles, u32) {
    let n_chunks = bytes.div_ceil(1024).clamp(1, 8);
    let n_pkts = bytes.div_ceil(MSS).max(1);
    let mut tracked = Access::default();
    let (conns, p) = k.split();
    let conn_ref = conns.get_mut(&conn.0).expect("live connection");
    // The fresh buffers go straight onto the inflight queues.
    for _ in 0..n_chunks {
        let (chunk, cost) = p.slab.alloc(core, DataType::Slab1024, p.cache);
        tracked.add(cost);
        tracked.add(
            p.cache
                .access_tagged(core, chunk, FieldTag::BothRwByApp, true),
        );
        // Copy the response into the chunk: touches the whole payload
        // region (warm only if this core freed the chunk recently).
        tracked.add(p.cache.access_tagged(core, chunk, FieldTag::AppOnly, true));
        p.tx_bufs.push_back(&mut conn_ref.tx_chunks, chunk);
    }
    for _ in 0..n_pkts {
        let (skb, cost) = p.slab.alloc(core, DataType::SkBuff, p.cache);
        tracked.add(cost);
        tracked.add(p.cache.access_tagged(core, skb, FieldTag::BothRwByRx, true));
        p.tx_bufs.push_back(&mut conn_ref.tx_skbs, skb);
    }
    let sock = conn_ref.sock;
    tracked.add(lock_word_access(p.cache, core, sock));
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByApp, true),
    );
    // The transmit path consults receive-side state (rcv_wnd, ack status),
    // which the packet side keeps dirty.
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByRx, false),
    );
    tracked.add(p.cache.access_tagged(core, sock, FieldTag::BothRo, false));
    tracked.add(access_some(p.cache, core, sock, FieldTag::AppOnly, true, 4));
    let hold = CONN_LOCK_HOLD_BASE + tracked.latency;
    let (_, spin) = conn_ref.lock.run_locked(at, hold, p.lockstat);
    let lock_overhead = p.lockstat.op_overhead();
    let cycles = charge_parts(p.machine, p.perf, costs::SYS_WRITEV, tracked);
    (cycles + spin + lock_overhead, n_pkts)
}

/// One `poll()` invocation by an event loop or waiting worker.
pub fn sys_poll(k: &mut Kernel, core: CoreId, at: Cycles, task: &TaskObjs) -> Cycles {
    let _ = at;
    let mut tracked = k
        .cache
        .access_tagged(core, task.waitq, FieldTag::BothRwByRx, false);
    tracked.add(
        k.cache
            .access_tagged(core, task.waitq, FieldTag::GlobalNode, true),
    );
    k.charge(costs::SYS_POLL, tracked)
}

/// One `poll()` on a specific connection (Apache's worker waiting for the
/// next request on its socket): checks the receive state the packet side
/// maintains.
pub fn sys_poll_conn(
    k: &mut Kernel,
    core: CoreId,
    at: Cycles,
    task: &TaskObjs,
    conn: ConnId,
) -> Cycles {
    let _ = at;
    let sock = k.conn(conn).sock;
    let mut tracked = k
        .cache
        .access_tagged(core, task.waitq, FieldTag::BothRwByRx, false);
    tracked.add(
        k.cache
            .access_tagged(core, sock, FieldTag::BothRwByRx, false),
    );
    k.charge(costs::SYS_POLL, tracked)
}

/// One futex sleep/wake pair (Apache's acceptor→worker handoff).
pub fn sys_futex_pair(k: &mut Kernel, core: CoreId, at: Cycles, task: &TaskObjs) -> Cycles {
    let _ = at;
    let mut tracked = k
        .cache
        .access_tagged(core, task.ts, FieldTag::BothRwByRx, false);
    tracked.add(access_some(
        &mut k.cache,
        core,
        task.waitq,
        FieldTag::BothRwByRx,
        true,
        1,
    ));
    k.charge(costs::SYS_FUTEX, tracked)
}

/// A context switch into a previously woken task: the scheduler reads the
/// fields the (possibly remote) waker wrote.
pub fn schedule_in(k: &mut Kernel, core: CoreId, at: Cycles, task: &TaskObjs) -> Cycles {
    let _ = at;
    let mut tracked = k
        .cache
        .access_tagged(core, task.ts, FieldTag::BothRwByRx, true);
    tracked.add(access_some(
        &mut k.cache,
        core,
        task.stack,
        FieldTag::BothRwByRx,
        true,
        4,
    ));
    k.charge(costs::SCHEDULE, tracked)
}

/// `shutdown()`: the server initiates teardown; returns the FIN to send.
pub fn sys_shutdown(k: &mut Kernel, core: CoreId, at: Cycles, conn: ConnId) -> (Cycles, u32) {
    let (conns, p) = k.split();
    let conn_ref = conns.get_mut(&conn.0).expect("live connection");
    let sock = conn_ref.sock;
    let mut tracked = lock_word_access(p.cache, core, sock);
    tracked.add(
        p.cache
            .access_tagged(core, sock, FieldTag::BothRwByApp, true),
    );
    tracked.add(access_some(p.cache, core, sock, FieldTag::AppOnly, true, 3));
    let hold = CONN_LOCK_HOLD_BASE + tracked.latency;
    let (_, spin) = conn_ref.lock.run_locked(at, hold, p.lockstat);
    let lock_overhead = p.lockstat.op_overhead();
    conn_ref.state = ConnState::Closing;
    let cycles = charge_parts(p.machine, p.perf, costs::SYS_SHUTDOWN, tracked);
    (cycles + spin + lock_overhead, 1)
}

/// `close()`: unhashes the connection and frees its objects on this core.
/// The caller removes the connection from the registry afterwards.
pub fn sys_close(k: &mut Kernel, core: CoreId, at: Cycles, conn: ConnId) -> Cycles {
    let tuple = k.conn(conn).tuple;
    let (_, w) = k
        .est
        .bucket_lock(&tuple)
        .run_locked(at, BUCKET_LOCK_HOLD, &mut k.lockstat);
    let spin = w;
    let lock_overhead = k.lockstat.op_overhead();
    let head = k.est.bucket_head(&tuple);
    let mut tracked = k
        .cache
        .access_tagged(core, head, FieldTag::GlobalNode, true);
    // Unlinking writes the neighbour's linkage fields.
    if let Some(nb) = k.est.chain_neighbor(&tuple, conn) {
        let nb_sock = k.conn(nb).sock;
        tracked.add(access_some(
            &mut k.cache,
            core,
            nb_sock,
            FieldTag::GlobalNode,
            true,
            2,
        ));
    }
    k.est.remove(&tuple);
    let sock = k.conn(conn).sock;
    tracked.add(
        k.cache
            .access_tagged(core, sock, FieldTag::GlobalNode, true),
    );
    // Drain anything the client left unread / unacknowledged.
    let (conns, p) = k.split();
    let conn_ref = conns.get_mut(&conn.0).expect("live connection");
    conn_ref.state = ConnState::Closed;
    while let Some(seg) = p.rx_segs.pop_front(&mut conn_ref.rcv_queue) {
        tracked.add(p.slab.free(core, seg.skb, p.cache));
        tracked.add(p.slab.free(core, seg.page, p.cache));
    }
    while let Some(chunk) = p.tx_bufs.pop_front(&mut conn_ref.tx_chunks) {
        tracked.add(p.slab.free(core, chunk, p.cache));
    }
    while let Some(skb) = p.tx_bufs.pop_front(&mut conn_ref.tx_skbs) {
        tracked.add(p.slab.free(core, skb, p.cache));
    }
    if let Some(fd) = conn_ref.fd.take() {
        tracked.add(p.slab.free(core, fd, p.cache));
    }
    if let Some(meta) = conn_ref.meta.take() {
        tracked.add(p.slab.free(core, meta, p.cache));
    }
    tracked.add(p.slab.free(core, sock, p.cache));
    let cycles = charge_parts(p.machine, p.perf, costs::SYS_CLOSE, tracked);
    cycles + spin + lock_overhead
}

/// User-space request processing: the application parses the request,
/// finds the file (taking and dropping a reference on the globally shared
/// `file` object), and builds the response. Costs `app_cycles` of user
/// time plus the tracked accesses; charged to user time, not to a kernel
/// entry.
pub fn app_request(k: &mut Kernel, core: CoreId, file_idx: usize, app_cycles: Cycles) -> Cycles {
    let mut tracked = Access::default();
    if !k.files.is_empty() {
        let file = k.files[file_idx % k.files.len()];
        tracked.add(
            k.cache
                .access_tagged(core, file, FieldTag::GlobalNode, true),
        );
    }
    let cycles = app_cycles + tracked.latency;
    k.user_cycles += cycles;
    cycles
}

/// Amortized RCU softirq work, once per request.
pub fn rcu_tick(k: &mut Kernel) -> Cycles {
    k.charge(costs::SOFTIRQ_RCU, Access::default())
}

/// One `epoll_wait` (charged per request for event-driven servers).
pub fn sys_epoll_wait(k: &mut Kernel) -> Cycles {
    k.charge(costs::SYS_EPOLL_WAIT, Access::default())
}

/// Wakes a sleeping task from softirq context (outside the data-path ops
/// that fold the wake in): writes the target's scheduler state, charged
/// to `softirq_net_rx`.
pub fn wake_task(k: &mut Kernel, core: CoreId, target: &TaskObjs) -> Cycles {
    let tracked = wake_access(&mut k.cache, core, target);
    k.charge(costs::WAKE, tracked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::perf::KernelEntry;
    use sim::topology::Machine;

    const RX: CoreId = CoreId(0);
    const APP_REMOTE: CoreId = CoreId(12); // different chip on AMD
    const APP_LOCAL: CoreId = RX;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(Machine::amd48());
        k.init_files(100);
        k
    }

    fn establish(k: &mut Kernel, port: u16) -> (ConnId, ObjId) {
        let tuple = FlowTuple::client(1, port, 80);
        let (_, req) = syn(k, RX, 0, tuple, true);
        let (_, conn, req_obj) = ack_establish(k, RX, 1000, req, true).expect("established");
        (conn, req_obj)
    }

    #[test]
    fn full_connection_lifecycle() {
        let mut k = kernel();
        let (conn, req_obj) = establish(&mut k, 1234);
        assert_eq!(k.live_conns(), 1);
        assert_eq!(k.est.len(), 1);
        assert!(k.reqs.is_empty());

        accept_established(&mut k, APP_LOCAL, 2000, conn, req_obj);
        assert!(k.conn(conn).has_affinity());

        // One request/response round trip.
        data_rx(&mut k, RX, 3000, conn, 300, 0, None);
        assert_eq!(k.rx_segs.iter(k.conn(conn).rcv_queue).count(), 1);
        let _ = sys_read(&mut k, APP_LOCAL, 4000, conn);
        assert!(k.conn(conn).rcv_queue.is_empty());
        app_request(&mut k, APP_LOCAL, 3, 50_000);
        let (_, pkts) = sys_writev(&mut k, APP_LOCAL, 5000, conn, 700);
        assert_eq!(pkts, 1);
        assert!(!k.conn(conn).tx_chunks.is_empty());
        data_ack_rx(&mut k, RX, 6000, conn);
        assert!(k.conn(conn).tx_chunks.is_empty());

        fin_rx(&mut k, RX, 7000, conn, None);
        assert_eq!(k.conn(conn).state, ConnState::Closing);
        sys_close(&mut k, APP_LOCAL, 8000, conn);
        assert_eq!(k.est.len(), 0);
        k.remove_conn(conn);
        assert_eq!(k.live_conns(), 0);
    }

    #[test]
    fn remote_app_core_costs_more_than_local() {
        // The paper's headline effect: processing the application half on
        // a remote core makes the kernel path substantially slower.
        let run = |app: CoreId| -> u64 {
            let mut k = kernel();
            let (conn, req_obj) = establish(&mut k, 999);
            accept_established(&mut k, app, 2000, conn, req_obj);
            let mut total = 0;
            for i in 0..20u64 {
                let t = 10_000 + i * 100_000;
                total += data_rx(&mut k, RX, t, conn, 300, 0, None);
                total += sys_read(&mut k, app, t + 20_000, conn).0;
                total += sys_writev(&mut k, app, t + 40_000, conn, 700).0;
                total += data_ack_rx(&mut k, RX, t + 60_000, conn);
            }
            total
        };
        let local = run(APP_LOCAL);
        let remote = run(APP_REMOTE);
        assert!(
            remote as f64 > local as f64 * 1.25,
            "remote {remote} local {local}"
        );
    }

    #[test]
    fn multi_packet_response() {
        let mut k = kernel();
        let (conn, req_obj) = establish(&mut k, 77);
        accept_established(&mut k, RX, 0, conn, req_obj);
        let (_, pkts) = sys_writev(&mut k, RX, 0, conn, 5670);
        assert_eq!(pkts, 4); // ceil(5670 / 1448)
        assert_eq!(k.tx_bufs.iter(k.conn(conn).tx_skbs).count(), 4);
    }

    #[test]
    fn counters_attributed_to_entries() {
        let mut k = kernel();
        let (conn, req_obj) = establish(&mut k, 5);
        accept_established(&mut k, RX, 0, conn, req_obj);
        data_rx(&mut k, RX, 0, conn, 300, 0, None);
        let _ = sys_read(&mut k, RX, 0, conn);
        assert_eq!(k.perf.entry(KernelEntry::SoftirqNetRx).calls, 3); // syn, ack, data
        assert_eq!(k.perf.entry(KernelEntry::SysRead).calls, 1);
        assert_eq!(k.perf.entry(KernelEntry::SysAccept4).calls, 1);
        assert!(k.perf.entry(KernelEntry::SoftirqNetRx).cycles > 0);
    }

    #[test]
    fn close_releases_everything() {
        let mut k = kernel();
        let before = k.slab.frees;
        let (conn, req_obj) = establish(&mut k, 8);
        accept_established(&mut k, RX, 0, conn, req_obj);
        data_rx(&mut k, RX, 0, conn, 300, 0, None); // leaves an unread segment
        sys_writev(&mut k, RX, 0, conn, 2000); // leaves unacked tx buffers
        sys_close(&mut k, RX, 0, conn);
        // req sock, skb+page, 2 chunks + 2 skbs, fd, sock.
        assert!(k.slab.frees >= before + 8, "frees {}", k.slab.frees);
    }

    #[test]
    fn wake_param_touches_task_objs() {
        let mut k = kernel();
        let t = k.new_task_objs(CoreId(30));
        let (conn, req_obj) = establish(&mut k, 3);
        accept_established(&mut k, CoreId(30), 0, conn, req_obj);
        let without = {
            let mut k2 = kernel();
            let (c2, r2) = establish(&mut k2, 3);
            accept_established(&mut k2, CoreId(30), 0, c2, r2);
            data_rx(&mut k2, RX, 0, c2, 300, 0, None)
        };
        let with = data_rx(&mut k, RX, 0, conn, 300, 0, Some(&t));
        assert!(with > without, "wake adds cost: {with} vs {without}");
    }

    #[test]
    fn user_cycles_accumulate() {
        let mut k = kernel();
        app_request(&mut k, RX, 0, 50_000);
        assert!(k.user_cycles >= 50_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sim::topology::Machine;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random interleavings of connection lifecycles conserve kernel
        /// state: the established table tracks live connections, the
        /// request table drains, and slab frees balance what was consumed.
        #[test]
        fn lifecycle_conservation(
            ports in proptest::collection::vec(1u16..60_000, 1..25),
            serve_requests in 0u32..4,
        ) {
            let mut k = Kernel::new(Machine::amd48());
            k.init_files(10);
            let rx = CoreId(1);
            let app = CoreId(7);
            let mut conns = Vec::new();
            let mut at = 0u64;
            for port in &ports {
                let tuple = FlowTuple::client(u32::from(*port), *port, 80);
                let (_, req) = syn(&mut k, rx, at, tuple, true);
                at += 100_000;
                if let Some((_, conn, req_obj)) = ack_establish(&mut k, rx, at, req, true) {
                    at += 100_000;
                    accept_established(&mut k, app, at, conn, req_obj);
                    conns.push(conn);
                }
            }
            prop_assert_eq!(k.est.len(), conns.len());
            prop_assert!(k.reqs.is_empty());
            for conn in &conns {
                for _ in 0..serve_requests {
                    at += 100_000;
                    data_rx(&mut k, rx, at, *conn, 300, 0, None);
                    at += 100_000;
                    let _ = sys_read(&mut k, app, at, *conn);
                    at += 100_000;
                    sys_writev(&mut k, app, at, *conn, 700);
                    at += 100_000;
                    data_ack_rx(&mut k, rx, at, *conn);
                }
                prop_assert!(k.conn(*conn).rcv_queue.is_empty());
                prop_assert!(k.conn(*conn).tx_chunks.is_empty());
            }
            for conn in &conns {
                at += 100_000;
                fin_rx(&mut k, rx, at, *conn, None);
                at += 100_000;
                sys_close(&mut k, app, at, *conn);
                k.remove_conn(*conn);
            }
            prop_assert_eq!(k.live_conns(), 0);
            prop_assert_eq!(k.est.len(), 0);
        }
    }
}
