//! Field-granularity layouts for the tracked kernel data types.
//!
//! Table 4 of the paper (produced by DProf) shows *which fraction* of each
//! data type's bytes and cache lines are shared between cores, and that the
//! shared bytes "are not packed into a few cache lines but spread across
//! the data structure". To reproduce that, each type gets an explicit field
//! layout; every field carries a [`FieldTag`] describing which side of
//! connection processing touches it:
//!
//! * packet-side (softirq) code on the core the NIC steers the flow to, and
//! * application-side (syscall) code on the core that accepted the
//!   connection.
//!
//! Under Fine-Accept those are *different* cores for almost every
//! connection, so every `Both*` field becomes cross-core shared; under
//! Affinity-Accept they are the same core and only `GlobalNode` fields
//! (global hash/list linkage, reference counts) remain shared. The sharing
//! percentages of Table 4 are therefore *emergent* from these annotations.

use crate::types::{DataType, CACHE_LINE};
use std::sync::OnceLock;

/// Who touches a field, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldTag {
    /// Touched only by packet-side (softirq) code.
    RxOnly,
    /// Touched only by application-side (syscall) code.
    AppOnly,
    /// Written by the packet side, read by the application side
    /// (e.g. `rcv_nxt`, receive-queue linkage).
    BothRwByRx,
    /// Written by the application side, read by the packet side
    /// (e.g. send-queue linkage, `snd_una` consumption).
    BothRwByApp,
    /// Read by both sides, effectively written only at setup
    /// (e.g. the connection five-tuple).
    BothRo,
    /// Linkage into global structures (established-connection hash chain,
    /// global socket lists, reference counts): written by whichever core
    /// performs the global operation, shared even under Affinity-Accept.
    GlobalNode,
    /// Present in the object but never touched on the measured path.
    LocalOnly,
}

impl FieldTag {
    /// Whether a field with this tag belongs to the set DProf identifies
    /// as shared under Fine-Accept — the instrumented set whose access
    /// latencies both Table 4's last column and Figure 4 report.
    #[must_use]
    pub fn shared_under_fine(self) -> bool {
        matches!(
            self,
            FieldTag::BothRwByRx | FieldTag::BothRwByApp | FieldTag::BothRo | FieldTag::GlobalNode
        )
    }

    /// Whether the field is written on the measured path.
    #[must_use]
    pub fn written(self) -> bool {
        !matches!(self, FieldTag::BothRo | FieldTag::LocalOnly)
    }
}

/// One field of a tracked kernel object.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name (stable, used in DProf-style reports).
    pub name: String,
    /// Byte offset within the object.
    pub off: usize,
    /// Length in bytes.
    pub len: usize,
    /// Who touches the field.
    pub tag: FieldTag,
}

impl Field {
    /// Indices of the cache lines this field overlaps.
    pub fn lines(&self) -> impl Iterator<Item = usize> + use<> {
        let first = self.off / CACHE_LINE;
        let last = (self.off + self.len - 1) / CACHE_LINE;
        first..=last
    }
}

struct Builder {
    fields: Vec<Field>,
    size: usize,
}

impl Builder {
    fn new(size: usize) -> Self {
        Self {
            fields: Vec::new(),
            size,
        }
    }

    fn field(&mut self, name: impl Into<String>, off: usize, len: usize, tag: FieldTag) {
        let name = name.into();
        assert!(len > 0, "zero-length field {name}");
        assert!(off + len <= self.size, "field {name} out of bounds");
        self.fields.push(Field {
            name,
            off,
            len,
            tag,
        });
    }

    /// Places a field at the start of cache line `line`.
    fn at_line(&mut self, name: impl Into<String>, line: usize, len: usize, tag: FieldTag) {
        self.field(name, line * CACHE_LINE, len, tag);
    }

    /// Places a field at `line * 64 + within`.
    fn at(
        &mut self,
        name: impl Into<String>,
        line: usize,
        within: usize,
        len: usize,
        tag: FieldTag,
    ) {
        self.field(name, line * CACHE_LINE + within, len, tag);
    }

    fn build(mut self) -> Vec<Field> {
        self.fields.sort_by_key(|f| f.off);
        // Fields must not overlap.
        for w in self.fields.windows(2) {
            assert!(
                w[0].off + w[0].len <= w[1].off,
                "overlap between {} and {}",
                w[0].name,
                w[1].name
            );
        }
        self.fields
    }
}

/// `struct tcp_sock`: 1,664 bytes, 26 lines. Under Fine-Accept 85 % of its
/// lines and 30 % of its bytes are shared (22 % read-write); under
/// Affinity-Accept only the global linkage (3 lines, ~2 % of bytes).
fn tcp_sock() -> Vec<Field> {
    let mut b = Builder::new(DataType::TcpSock.size());
    // Lines 0..=8: packet-side-written, app-read hot state spread across
    // the structure (receive queue linkage, rcv_nxt, copied_seq, rmem
    // accounting, backlog, timestamps, ...).
    let rx_names = [
        "rcv_queue_head",
        "rcv_nxt",
        "copied_seq",
        "rmem_alloc",
        "backlog_head",
        "rcv_tstamp",
        "rx_opt",
        "rcv_wnd",
        "urg_data",
    ];
    for (i, name) in rx_names.iter().enumerate() {
        b.at_line(*name, i, 24, FieldTag::BothRwByRx);
        if i == 0 {
            // The sock spinlock word: written by every locker on either
            // side of the connection.
            b.at("sock_lock_word", 0, 24, 4, FieldTag::GlobalNode);
            b.at("rx_priv_0", 0, 28, 36, FieldTag::RxOnly);
        } else {
            b.at(format!("rx_priv_{i}"), i, 24, 40, FieldTag::RxOnly);
        }
    }
    // Lines 9, 10, 14, 15: app-written, packet-side-read state (send queue,
    // write memory accounting, snd_una consumption, wakeup flags).
    for (i, (line, name)) in [
        (9usize, "snd_queue_head"),
        (10, "wmem_queued"),
        (14, "snd_una_app"),
        (15, "sk_wq_flags"),
    ]
    .iter()
    .enumerate()
    {
        b.at_line(*name, *line, 24, FieldTag::BothRwByApp);
        b.at(format!("app_priv_{i}"), *line, 24, 40, FieldTag::AppOnly);
    }
    // Lines 11..=13: linkage into global structures: shared even with
    // perfect connection affinity.
    b.at_line("est_hash_node", 11, 16, FieldTag::GlobalNode);
    b.at("hash_pad", 11, 16, 48, FieldTag::LocalOnly);
    b.at_line("global_sock_list", 12, 16, FieldTag::GlobalNode);
    b.at("list_pad", 12, 16, 48, FieldTag::LocalOnly);
    b.at_line("proto_mem_acct", 13, 16, FieldTag::GlobalNode);
    b.at("acct_pad", 13, 16, 48, FieldTag::LocalOnly);
    // Lines 16..=21: read by both sides, written at connection setup only
    // (five-tuple, route, negotiated options, mss).
    let ro_names = [
        "five_tuple",
        "dst_entry",
        "mss_cache",
        "sack_opts",
        "wscale_opts",
        "sock_flags",
    ];
    for (i, name) in ro_names.iter().enumerate() {
        b.at_line(*name, 16 + i, 24, FieldTag::BothRo);
        b.at(format!("setup_priv_{i}"), 16 + i, 24, 40, FieldTag::RxOnly);
    }
    // Lines 22..=25: cold configuration touched off the measured path.
    for line in 22..26 {
        b.at_line(format!("cold_{line}"), line, 64, FieldTag::LocalOnly);
    }
    b.build()
}

/// `struct sk_buff`: 512 bytes, 8 lines. Allocated on the RX core; under
/// Fine-Accept the data pointers and state written by the packet side are
/// read (and the buffer freed) on the app core.
fn sk_buff() -> Vec<Field> {
    let mut b = Builder::new(DataType::SkBuff.size());
    for (i, name) in ["skb_data_ptrs", "skb_len_state", "skb_cb"]
        .iter()
        .enumerate()
    {
        b.at_line(*name, i, 24, FieldTag::BothRwByRx);
        b.at(format!("skb_rx_priv_{i}"), i, 24, 40, FieldTag::RxOnly);
    }
    b.at_line("skb_proto_hdrs", 3, 16, FieldTag::BothRo);
    b.at("skb_hdr_priv", 3, 16, 48, FieldTag::RxOnly);
    b.at_line("skb_truesize_acct", 4, 5, FieldTag::GlobalNode);
    b.at_line("skb_dma_desc", 5, 5, FieldTag::GlobalNode);
    for line in 6..8 {
        b.at_line(format!("skb_cold_{line}"), line, 64, FieldTag::LocalOnly);
    }
    b.build()
}

/// `struct tcp_request_sock`: 128 bytes, 2 lines. Created by the packet
/// side on SYN; Linux's accept queue holds request sockets pointing at the
/// child socket, so `accept()` on another core reads (and frees) both
/// lines — 100 % of the object shared under Fine-Accept, none under
/// Affinity-Accept.
fn tcp_request_sock() -> Vec<Field> {
    let mut b = Builder::new(DataType::TcpRequestSock.size());
    b.at_line("req_child_link", 0, 15, FieldTag::BothRwByRx);
    b.at("req_retrans_state", 0, 15, 49, FieldTag::RxOnly);
    b.at_line("req_tuple_opts", 1, 13, FieldTag::BothRo);
    b.at("req_timer_priv", 1, 13, 51, FieldTag::RxOnly);
    b.build()
}

/// Socket file-descriptor entry: 640 bytes, 10 lines; only the global fd
/// refcount line is cross-core in either implementation.
fn socket_fd() -> Vec<Field> {
    let mut b = Builder::new(DataType::SocketFd.size());
    b.at_line("fd_refcount", 0, 13, FieldTag::GlobalNode);
    b.at("fd_flags", 0, 13, 51, FieldTag::AppOnly);
    for line in 1..10 {
        b.at_line(format!("fd_priv_{line}"), line, 64, FieldTag::AppOnly);
    }
    b.build()
}

/// `struct file` for the served static content: every request takes and
/// drops a reference, so the refcount lines are shared by all cores in
/// both implementations (the paper notes the resulting reference-count
/// scalability limit for lighttpd at high rates).
fn file() -> Vec<Field> {
    let mut b = Builder::new(DataType::File.size());
    b.at_line("f_count", 0, 8, FieldTag::GlobalNode);
    b.at("f_pad0", 0, 8, 56, FieldTag::LocalOnly);
    b.at_line("f_pos_lock", 1, 4, FieldTag::GlobalNode);
    b.at("f_pad1", 1, 4, 60, FieldTag::LocalOnly);
    b.at_line("f_ra_state", 2, 3, FieldTag::GlobalNode);
    b.at("f_pad2", 2, 3, 61, FieldTag::LocalOnly);
    b.build()
}

/// `struct task_struct`: 5,184 bytes, 81 lines. Under Fine-Accept the
/// packet-side core performs remote wakeups, dirtying the scheduler fields;
/// under Affinity-Accept wakeups are local.
fn task_struct() -> Vec<Field> {
    let mut b = Builder::new(DataType::TaskStruct.size());
    let names = [
        "ts_state",
        "ts_on_rq",
        "ts_se_vruntime",
        "ts_wake_entry",
        "ts_cpu",
        "ts_wake_flags",
        "ts_sched_info",
        "ts_pi_lock",
    ];
    for (i, name) in names.iter().enumerate() {
        b.at_line(*name, i, 13, FieldTag::BothRwByRx);
        b.at(format!("ts_priv_{i}"), i, 13, 51, FieldTag::LocalOnly);
    }
    for line in 8..81 {
        b.at_line(format!("ts_cold_{line}"), line, 64, FieldTag::LocalOnly);
    }
    b.build()
}

/// 16 KB slab (thread kernel stacks): a sliver is dirtied by remote wakeups
/// under Fine-Accept.
fn slab_16384() -> Vec<Field> {
    let mut b = Builder::new(DataType::Slab16384.size());
    for i in 0..13 {
        b.at_line(format!("stack_frame_{i}"), i, 13, FieldTag::BothRwByRx);
    }
    for (i, line) in (13..16).enumerate() {
        b.at_line(format!("stack_acct_{i}"), line, 2, FieldTag::GlobalNode);
    }
    for line in 16..256 {
        b.at_line(format!("stack_cold_{line}"), line, 64, FieldTag::LocalOnly);
    }
    b.build()
}

/// 128-byte slab (small per-connection metadata created packet-side and
/// consumed app-side).
fn slab_128() -> Vec<Field> {
    let mut b = Builder::new(DataType::Slab128.size());
    b.at_line("s128_link", 0, 6, FieldTag::BothRwByRx);
    b.at("s128_priv0", 0, 6, 58, FieldTag::RxOnly);
    b.at_line("s128_state", 1, 6, FieldTag::BothRwByRx);
    b.at("s128_priv1", 1, 6, 58, FieldTag::RxOnly);
    b.build()
}

/// 1 KB slab (socket send-buffer chunks written by the app, consumed at
/// transmit completion).
fn slab_1024() -> Vec<Field> {
    let mut b = Builder::new(DataType::Slab1024.size());
    for i in 0..6 {
        b.at_line(format!("sndbuf_desc_{i}"), i, 7, FieldTag::BothRwByApp);
        b.at(format!("sndbuf_priv_{i}"), i, 7, 57, FieldTag::AppOnly);
    }
    // Payload region: written by the copy in writev. Not cross-core
    // shared, but its warmth matters: with affinity the recycled chunk is
    // still in the writing core's cache; without it every chunk is cold.
    for line in 6..16 {
        b.at_line(format!("sndbuf_data_{line}"), line, 64, FieldTag::AppOnly);
    }
    b.build()
}

/// 4 KB slab (page-sized packet data): header slivers cross cores under
/// Fine-Accept.
fn slab_4096() -> Vec<Field> {
    let mut b = Builder::new(DataType::Slab4096.size());
    for i in 0..10 {
        b.at_line(format!("page_hdr_{i}"), i, 4, FieldTag::BothRwByRx);
    }
    for (i, line) in (10..13).enumerate() {
        b.at_line(format!("page_acct_{i}"), line, 1, FieldTag::GlobalNode);
    }
    for line in 13..64 {
        b.at_line(format!("page_cold_{line}"), line, 64, FieldTag::LocalOnly);
    }
    b.build()
}

/// 192-byte slab (wait-queue entries).
fn slab_192() -> Vec<Field> {
    let mut b = Builder::new(DataType::Slab192.size());
    b.at_line("wq_entry_link", 0, 14, FieldTag::BothRwByRx);
    b.at("wq_priv0", 0, 14, 50, FieldTag::AppOnly);
    b.at_line("wq_func_flags", 1, 14, FieldTag::BothRwByRx);
    b.at("wq_priv1", 1, 14, 50, FieldTag::AppOnly);
    b.at_line("wq_global_cnt", 2, 4, FieldTag::GlobalNode);
    b.at("wq_pad", 2, 4, 60, FieldTag::LocalOnly);
    b.build()
}

/// The TCP listen socket (or one per-core clone of it).
fn listen_sock() -> Vec<Field> {
    let mut b = Builder::new(DataType::ListenSock.size());
    b.at_line("lsk_lock", 0, 8, FieldTag::GlobalNode);
    b.at("lsk_state", 0, 8, 56, FieldTag::BothRo);
    b.at_line("lsk_accept_qhead", 1, 16, FieldTag::BothRwByRx);
    b.at_line("lsk_accept_qtail", 2, 16, FieldTag::BothRwByRx);
    b.at_line("lsk_reqtbl_ref", 3, 16, FieldTag::BothRo);
    b.at_line("lsk_qlen_stats", 4, 16, FieldTag::BothRwByApp);
    for line in 5..26 {
        b.at_line(format!("lsk_cold_{line}"), line, 64, FieldTag::LocalOnly);
    }
    b.build()
}

/// The per-listen-socket busy-core bit vector (§3.3.1): one cache line that
/// every core reads and busy-status transitions write.
fn busy_bitmap() -> Vec<Field> {
    let mut b = Builder::new(DataType::BusyBitmap.size());
    b.at_line("busy_bits", 0, 16, FieldTag::GlobalNode);
    b.at("busy_pad", 0, 16, 48, FieldTag::LocalOnly);
    b.build()
}

/// A hash bucket head: the chain pointer is written by every core that
/// inserts or removes in the bucket — inherently global.
fn hash_bucket() -> Vec<Field> {
    let mut b = Builder::new(DataType::HashBucket.size());
    b.at_line("chain_head", 0, 16, FieldTag::GlobalNode);
    b.at("bucket_pad", 0, 16, 48, FieldTag::LocalOnly);
    b.build()
}

fn build_all() -> Vec<Vec<Field>> {
    // Indexed by `DataType::index()` so the hot-path lookups below are a
    // direct array access, not a scan of `DataType::ALL`.
    let mut all = vec![Vec::new(); DataType::ALL.len()];
    for t in DataType::ALL {
        all[t.index()] = match t {
            DataType::TcpSock => tcp_sock(),
            DataType::SkBuff => sk_buff(),
            DataType::TcpRequestSock => tcp_request_sock(),
            DataType::Slab16384 => slab_16384(),
            DataType::Slab128 => slab_128(),
            DataType::Slab1024 => slab_1024(),
            DataType::Slab4096 => slab_4096(),
            DataType::Slab192 => slab_192(),
            DataType::SocketFd => socket_fd(),
            DataType::TaskStruct => task_struct(),
            DataType::File => file(),
            DataType::ListenSock => listen_sock(),
            DataType::BusyBitmap => busy_bitmap(),
            DataType::HashBucket => hash_bucket(),
        };
    }
    all
}

static LAYOUTS: OnceLock<Vec<Vec<Field>>> = OnceLock::new();

/// The field layout of a data type.
#[must_use]
pub fn fields(ty: DataType) -> &'static [Field] {
    let all = LAYOUTS.get_or_init(build_all);
    &all[ty.index()]
}

/// Number of field tags (`FieldTag` discriminants).
const N_TAGS: usize = 7;

/// One field compiled for the cache model's hot path: the lines it
/// overlaps and what the profilers record of it, in 10 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    /// First line the field overlaps.
    pub(crate) first: u8,
    /// One past the last line it overlaps.
    pub(crate) end: u8,
    /// Who touches the field.
    pub(crate) tag: FieldTag,
    /// The field's index in [`fields`].
    pub(crate) field: u16,
    /// Byte offset within the object.
    pub(crate) off: u16,
    /// Length in bytes.
    pub(crate) len: u16,
}

const _: () = assert!(std::mem::size_of::<Run>() == 10);

impl Run {
    fn new(field: usize, f: &Field) -> Self {
        let narrow = |v: usize| u16::try_from(v).expect("modeled field fits u16");
        let line = |l: usize| u8::try_from(l).expect("modeled line fits u8");
        Self {
            first: line(f.off / CACHE_LINE),
            end: line((f.off + f.len).div_ceil(CACHE_LINE)),
            tag: f.tag,
            field: narrow(field),
            off: narrow(f.off),
            len: narrow(f.len),
        }
    }

    /// The lines the field overlaps.
    #[inline]
    #[must_use]
    pub(crate) fn lines(&self) -> std::ops::Range<usize> {
        usize::from(self.first)..usize::from(self.end)
    }

    /// The slice of the field that overlaps `line`, as a byte bitmask
    /// relative to the line start.
    #[must_use]
    pub(crate) fn byte_mask(&self, line: usize) -> u64 {
        let (off, len) = (usize::from(self.off), usize::from(self.len));
        let line_lo = line * CACHE_LINE;
        let lo = off.max(line_lo) - line_lo;
        let hi = (off + len).min(line_lo + CACHE_LINE) - line_lo;
        debug_assert!(lo < hi && hi <= CACHE_LINE);
        let width = hi - lo;
        if width >= 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << lo
        }
    }
}

/// A type's layout compiled once into [`Run`]s, for the fields in its
/// modeled prefix (the first [`hot_lines`] lines). Fields in the cold tail
/// have no run: the data path never touches them.
#[derive(Debug)]
pub(crate) struct Plan {
    /// [`hot_lines`] of the type.
    pub(crate) hot_lines: u8,
    /// One run per modeled field, in field order: the modeled fields are a
    /// prefix of [`fields`], so a field's index is its run's.
    pub(crate) fields: Box<[Run]>,
    /// The same runs grouped by tag, in field order within a tag.
    by_tag: Box<[Run]>,
    /// `by_tag[tag_start[t]..tag_start[t + 1]]` carry tag `t`.
    tag_start: [u16; N_TAGS + 1],
}

impl Plan {
    fn new(ty: DataType) -> Self {
        let hot = hot_lines(ty);
        let fields: Box<[Run]> = fields(ty)
            .iter()
            .take_while(|f| f.lines().all(|l| l < hot))
            .enumerate()
            .map(|(i, f)| Run::new(i, f))
            .collect();
        let mut by_tag = fields.to_vec();
        by_tag.sort_by_key(|r| r.tag as usize);
        let mut tag_start = [0u16; N_TAGS + 1];
        for r in &by_tag {
            tag_start[r.tag as usize + 1] += 1;
        }
        for t in 0..N_TAGS {
            tag_start[t + 1] += tag_start[t];
        }
        Self {
            hot_lines: u8::try_from(hot).expect("hot lines fit u8"),
            fields,
            by_tag: by_tag.into(),
            tag_start,
        }
    }

    /// The runs of the modeled fields carrying `tag`, in field order.
    #[inline]
    #[must_use]
    pub(crate) fn tagged(&self, tag: FieldTag) -> &[Run] {
        let t = tag as usize;
        &self.by_tag[usize::from(self.tag_start[t])..usize::from(self.tag_start[t + 1])]
    }
}

static PLANS: OnceLock<Vec<Plan>> = OnceLock::new();

/// Every type's [`Plan`], indexed by [`DataType::index`].
#[must_use]
pub(crate) fn plans() -> &'static [Plan] {
    PLANS.get_or_init(|| {
        (0..DataType::ALL.len())
            .map(|i| Plan::new(DataType::from_index(i)))
            .collect()
    })
}

/// Indices of all fields of `ty` carrying tag `tag`.
#[must_use]
pub fn fields_with_tag(ty: DataType, tag: FieldTag) -> Vec<usize> {
    fields(ty)
        .iter()
        .enumerate()
        .filter(|(_, f)| f.tag == tag)
        .map(|(i, _)| i)
        .collect()
}

/// Number of leading cache lines reachable through fields the data path
/// actually touches (everything but `LocalOnly`). The cache model only
/// materializes line state for this prefix; the cold tail (e.g. 240 of a
/// kernel stack's 256 lines) is never accessed at runtime.
#[must_use]
pub fn hot_lines(ty: DataType) -> usize {
    fields(ty)
        .iter()
        .filter(|f| f.tag != FieldTag::LocalOnly)
        .flat_map(Field::lines)
        .max()
        .map_or(1, |l| l + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Static sharing expectation for a type: `(lines_shared, bytes_shared,
    /// bytes_shared_rw)` assuming packet side and app side run on different
    /// cores (the Fine-Accept situation).
    fn fine_sharing_profile(ty: DataType) -> (usize, usize, usize) {
        let mut shared_lines = std::collections::BTreeSet::new();
        let mut bytes = 0;
        let mut rw = 0;
        for f in fields(ty) {
            if f.tag.shared_under_fine() {
                bytes += f.len;
                if f.tag.written() {
                    rw += f.len;
                }
                shared_lines.extend(f.lines());
            }
        }
        (shared_lines.len(), bytes, rw)
    }

    /// Checks a layout's emergent sharing against a Table 4 row, with a
    /// tolerance of a few percentage points (the paper's own numbers are
    /// workload-averaged).
    fn check(ty: DataType, lines_pct: f64, bytes_pct: f64, rw_pct: f64) {
        let (lines, bytes, rw) = fine_sharing_profile(ty);
        let lp = 100.0 * lines as f64 / ty.lines() as f64;
        let bp = 100.0 * bytes as f64 / ty.size() as f64;
        let rp = 100.0 * rw as f64 / ty.size() as f64;
        assert!(
            (lp - lines_pct).abs() <= 5.0,
            "{}: lines {lp:.1}% want {lines_pct}%",
            ty.label()
        );
        assert!(
            (bp - bytes_pct).abs() <= 3.0,
            "{}: bytes {bp:.1}% want {bytes_pct}%",
            ty.label()
        );
        assert!(
            (rp - rw_pct).abs() <= 3.0,
            "{}: rw {rp:.1}% want {rw_pct}%",
            ty.label()
        );
    }

    #[test]
    fn table4_fine_sharing_targets() {
        check(DataType::TcpSock, 85.0, 30.0, 22.0);
        check(DataType::SkBuff, 75.0, 20.0, 17.0);
        check(DataType::TcpRequestSock, 100.0, 22.0, 12.0);
        check(DataType::Slab16384, 5.0, 1.0, 1.0);
        check(DataType::Slab128, 100.0, 9.0, 9.0);
        check(DataType::Slab1024, 38.0, 4.0, 4.0);
        check(DataType::Slab4096, 19.0, 1.0, 1.0);
        check(DataType::SocketFd, 10.0, 2.0, 2.0);
        check(DataType::Slab192, 100.0, 17.0, 17.0);
        check(DataType::TaskStruct, 10.0, 2.0, 2.0);
        check(DataType::File, 100.0, 8.0, 8.0);
    }

    #[test]
    fn affinity_residual_sharing_is_global_linkage() {
        // Under Affinity-Accept only GlobalNode fields stay shared; for
        // tcp_sock that must be ~12% of lines and ~2% of bytes (Table 4).
        let globals = fields_with_tag(DataType::TcpSock, FieldTag::GlobalNode);
        let fs = fields(DataType::TcpSock);
        let mut lines = std::collections::BTreeSet::new();
        let mut bytes = 0;
        for &i in &globals {
            bytes += fs[i].len;
            lines.extend(fs[i].lines());
        }
        let lp = 100.0 * lines.len() as f64 / DataType::TcpSock.lines() as f64;
        let bp = 100.0 * bytes as f64 / DataType::TcpSock.size() as f64;
        // The static bound counts the sock lock word too, which at runtime
        // is only touched by the connection's own core(s); the measured
        // residual (Table 4's 12 %) comes from the three linkage lines.
        assert!((lp - 12.0).abs() <= 4.0, "lines {lp:.1}%");
        assert!((bp - 2.0).abs() <= 2.0, "bytes {bp:.1}%");
    }

    #[test]
    fn no_layout_overlaps_or_bounds_errors() {
        for ty in DataType::ALL {
            let fs = fields(ty);
            assert!(!fs.is_empty(), "{} has fields", ty.label());
            for f in fs {
                assert!(f.off + f.len <= ty.size());
            }
            for w in fs.windows(2) {
                assert!(w[0].off + w[0].len <= w[1].off);
            }
        }
    }

    #[test]
    fn field_names_unique_per_type() {
        for ty in DataType::ALL {
            let mut names: Vec<_> = fields(ty).iter().map(|f| f.name.as_str()).collect();
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "{} duplicate names", ty.label());
        }
    }

    #[test]
    fn request_sock_fully_shared_under_fine_none_under_affinity() {
        let (lines, _, _) = fine_sharing_profile(DataType::TcpRequestSock);
        assert_eq!(lines, DataType::TcpRequestSock.lines());
        assert!(fields_with_tag(DataType::TcpRequestSock, FieldTag::GlobalNode).is_empty());
    }

    #[test]
    fn hot_lines_truncate_cold_tails() {
        assert_eq!(hot_lines(DataType::TaskStruct), 8);
        assert_eq!(hot_lines(DataType::Slab16384), 16);
        assert_eq!(hot_lines(DataType::TcpSock), 22);
        assert_eq!(hot_lines(DataType::SkBuff), 6);
        // Fully-hot objects keep their size.
        assert_eq!(hot_lines(DataType::TcpRequestSock), 2);
    }

    #[test]
    fn lines_iterator_spans_multiline_fields() {
        let f = Field {
            name: "x".into(),
            off: 60,
            len: 10,
            tag: FieldTag::RxOnly,
        };
        let lines: Vec<_> = f.lines().collect();
        assert_eq!(lines, vec![0, 1]);
        let run = Run::new(0, &f);
        assert_eq!(run.lines(), 0..2);
        assert_eq!(run.byte_mask(0), 0xf << 60);
        assert_eq!(run.byte_mask(1), 0x3f);
    }

    #[test]
    fn plans_compile_every_modeled_field_by_index_and_tag() {
        let tags = [
            FieldTag::RxOnly,
            FieldTag::AppOnly,
            FieldTag::BothRwByRx,
            FieldTag::BothRwByApp,
            FieldTag::BothRo,
            FieldTag::GlobalNode,
            FieldTag::LocalOnly,
        ];
        for ty in DataType::ALL {
            let plan = &plans()[ty.index()];
            let fs = fields(ty);
            let hot = hot_lines(ty);
            assert_eq!(usize::from(plan.hot_lines), hot);
            let modeled: Vec<usize> = (0..fs.len())
                .filter(|&i| fs[i].lines().all(|l| l < hot))
                .collect();
            assert_eq!(modeled, (0..plan.fields.len()).collect::<Vec<_>>());
            for (i, r) in plan.fields.iter().enumerate() {
                let f = &fs[i];
                assert_eq!(usize::from(r.field), i);
                assert!(r.lines().eq(f.lines()), "{} {}", ty.label(), f.name);
                assert_eq!((r.tag, usize::from(r.off)), (f.tag, f.off));
                assert_eq!(usize::from(r.len), f.len);
            }
            for tag in tags {
                let want: Vec<usize> = fields_with_tag(ty, tag)
                    .into_iter()
                    .filter(|i| modeled.contains(i))
                    .collect();
                let got: Vec<usize> = plan
                    .tagged(tag)
                    .iter()
                    .map(|r| usize::from(r.field))
                    .collect();
                assert_eq!(got, want, "{} {tag:?}", ty.label());
            }
        }
    }
}
