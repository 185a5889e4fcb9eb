//! The httperf-style client fleet.
//!
//! §6.2: 25 client machines run httperf, generating a target rate of new
//! connections; each connection requests one file, thinks 100 ms, requests
//! two more, thinks 100 ms, requests three more, and closes. §6.5 adds a
//! 10-second per-connection timeout after which the client gives up.
//!
//! Clients are modelled as per-connection state machines driven by the
//! runner; they cost no simulated server CPU. Each connection gets a
//! unique source IP (the fleet is large), derived from its id so that a
//! server packet names its connection, and a random source port — the
//! low 12 bits of which determine the NIC flow group (§3.1).

use crate::files::FileSet;
use crate::workload::{Workload, REQUEST_BYTES};
use metrics::Histogram;
use nic::{FlowTuple, Packet, PacketKind};
use sim::fastmap::FastMap;
use sim::rng::SimRng;
use sim::time::Cycles;

/// Client-side connection id.
pub type CConnId = u64;

/// Source IP of client connection 0; connection `id` uses this plus `id`.
const SRC_IP_BASE: u32 = 0x0b00_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    /// SYN sent, waiting for the SYN-ACK.
    Connecting,
    /// A GET is outstanding.
    AwaitingResponse,
    /// Between batches.
    Thinking,
}

#[derive(Debug)]
struct CConn {
    tuple: FlowTuple,
    state: CState,
    batch_idx: usize,
    batch_left: u32,
    resp_remaining: i64,
    started: Cycles,
}

/// How a connection finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finish {
    Completed,
    TimedOut,
}

/// What the client does in response to a stimulus.
#[derive(Debug, Default)]
pub struct Reaction {
    /// Packets to transmit to the server.
    pub send: Vec<Packet>,
    /// If set, schedule a think timer for this connection.
    pub think_until: Option<Cycles>,
    /// The connection finished with this stimulus.
    pub done: bool,
}

/// The client fleet.
#[derive(Debug)]
pub struct Clients {
    wl: Workload,
    files: FileSet,
    rng: SimRng,
    conns: FastMap<CConnId, CConn>,
    next_id: u64,
    measuring: bool,
    /// Connection service-time distribution (cycles), §6.5.
    pub latencies: Histogram,
    /// Connections completed during measurement.
    pub completed: u64,
    /// Requests completed during measurement (client view).
    pub responses: u64,
    /// Connections abandoned at the timeout.
    pub timeouts: u64,
    /// Connections started over the whole run (never reset; the
    /// conservation audit balances this against finishes + live).
    pub total_started: u64,
    /// Connections finished normally over the whole run (never reset).
    pub total_completed: u64,
    /// Connections abandoned at the timeout over the whole run (never
    /// reset).
    pub total_timeouts: u64,
}

impl Clients {
    /// Creates a fleet for the given workload.
    #[must_use]
    pub fn new(wl: Workload, seed: u64) -> Self {
        let files = wl.file_set();
        Self {
            wl,
            files,
            rng: SimRng::new(seed ^ 0xC11E_27F1_EE7A_11ED),
            conns: FastMap::default(),
            next_id: 1,
            measuring: false,
            latencies: Histogram::new(),
            completed: 0,
            responses: 0,
            timeouts: 0,
            total_started: 0,
            total_completed: 0,
            total_timeouts: 0,
        }
    }

    /// Starts measurement (resets client-side statistics).
    pub fn start_measurement(&mut self) {
        self.measuring = true;
        self.latencies.clear();
        self.completed = 0;
        self.responses = 0;
        self.timeouts = 0;
    }

    /// Live (unfinished) client connections.
    #[must_use]
    pub fn live(&self) -> usize {
        self.conns.len()
    }

    /// The workload driving this fleet.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.wl
    }

    /// The file set (shared interpretation with the server).
    #[must_use]
    pub fn files(&self) -> &FileSet {
        &self.files
    }

    fn pick_file(&mut self) -> u32 {
        self.rng.below(self.files.len() as u64) as u32
    }

    fn get_packet(&mut self, tuple: FlowTuple) -> (Packet, u32) {
        let file = self.pick_file();
        (
            Packet::tagged(tuple, PacketKind::Data, REQUEST_BYTES, file),
            file,
        )
    }

    /// Opens a new connection at `now`; returns its id and the SYN.
    pub fn start_conn(&mut self, now: Cycles) -> (CConnId, Packet) {
        let id = self.next_id;
        self.next_id += 1;
        // Unique source IP per connection; random port picks a random
        // flow group.
        let src_ip = SRC_IP_BASE.wrapping_add(id as u32);
        let src_port = self.rng.range(1024, 65_535) as u16;
        let tuple = FlowTuple::client(src_ip, src_port, 80);
        self.conns.insert(
            id,
            CConn {
                tuple,
                state: CState::Connecting,
                batch_idx: 0,
                batch_left: 0,
                resp_remaining: 0,
                started: now,
            },
        );
        self.total_started += 1;
        (id, Packet::new(tuple, PacketKind::Syn, 0))
    }

    /// Looks up the live connection a server packet belongs to: the one
    /// whose id its source IP encodes, if that connection's tuple is the
    /// packet's. Ids stay below 2^32 (the runner's event storage panics
    /// first), so the encoding is one to one.
    #[must_use]
    pub fn conn_of(&self, tuple: &FlowTuple) -> Option<CConnId> {
        let id = CConnId::from(tuple.src_ip.wrapping_sub(SRC_IP_BASE));
        self.conns
            .get(&id)
            .is_some_and(|c| c.tuple == *tuple)
            .then_some(id)
    }

    fn finish(&mut self, id: CConnId, now: Cycles, how: Finish) {
        if let Some(c) = self.conns.remove(&id) {
            match how {
                Finish::Completed => self.total_completed += 1,
                Finish::TimedOut => self.total_timeouts += 1,
            }
            if self.measuring {
                self.latencies.record(now - c.started);
                match how {
                    Finish::Completed => self.completed += 1,
                    Finish::TimedOut => self.timeouts += 1,
                }
            }
        }
    }

    /// Handles a packet from the server at `now`.
    pub fn on_server_packet(&mut self, now: Cycles, id: CConnId, pkt: &Packet) -> Reaction {
        let mut r = Reaction::default();
        let Some(c) = self.conns.get(&id) else {
            return r;
        };
        let tuple = c.tuple;
        match (c.state, pkt.kind) {
            (CState::Connecting, PacketKind::SynAck) => {
                // Complete the handshake and issue the first batch's GET.
                r.send.push(Packet::new(tuple, PacketKind::Ack, 0));
                let (get, file) = self.get_packet(tuple);
                let c = self.conns.get_mut(&id).expect("live");
                c.state = CState::AwaitingResponse;
                c.batch_idx = 0;
                c.batch_left = self.wl.batches[0];
                c.resp_remaining =
                    i64::from(Workload::response_bytes(self.files.size(file as usize)));
                r.send.push(get);
            }
            (CState::AwaitingResponse, PacketKind::Data) => {
                let c = self.conns.get_mut(&id).expect("live");
                c.resp_remaining -= i64::from(pkt.payload);
                if c.resp_remaining > 0 {
                    return r;
                }
                c.batch_left -= 1;
                if self.measuring {
                    self.responses += 1;
                }
                if self.conns[&id].batch_left > 0 {
                    // Next request of the batch (the ACK piggybacks).
                    let (get, file) = self.get_packet(tuple);
                    let c = self.conns.get_mut(&id).expect("live");
                    c.resp_remaining =
                        i64::from(Workload::response_bytes(self.files.size(file as usize)));
                    r.send.push(get);
                } else if self.conns[&id].batch_idx + 1 < self.wl.batches.len() {
                    // Batch finished: ack the data and think.
                    r.send.push(Packet::new(tuple, PacketKind::DataAck, 0));
                    let c = self.conns.get_mut(&id).expect("live");
                    c.batch_idx += 1;
                    c.batch_left = self.wl.batches[c.batch_idx];
                    c.state = CState::Thinking;
                    r.think_until = Some(now + self.wl.think);
                } else {
                    // All done: ack and close.
                    r.send.push(Packet::new(tuple, PacketKind::DataAck, 0));
                    r.send.push(Packet::new(tuple, PacketKind::Fin, 0));
                    r.done = true;
                    self.finish(id, now, Finish::Completed);
                }
            }
            _ => {}
        }
        r
    }

    /// Think timer fired: issue the next batch's first GET.
    pub fn on_think(&mut self, _now: Cycles, id: CConnId) -> Vec<Packet> {
        let Some(c) = self.conns.get(&id) else {
            return Vec::new();
        };
        if c.state != CState::Thinking {
            return Vec::new();
        }
        let tuple = c.tuple;
        let (get, file) = self.get_packet(tuple);
        let c = self.conns.get_mut(&id).expect("live");
        c.state = CState::AwaitingResponse;
        c.resp_remaining = i64::from(Workload::response_bytes(self.files.size(file as usize)));
        vec![get]
    }

    /// Timeout check at `started + timeout` (§6.5): abandons the
    /// connection if it is still live and returns a FIN so the server
    /// cleans up. A connection that already finished is gone, so its
    /// timeout does nothing.
    pub fn on_timeout(&mut self, now: Cycles, id: CConnId) -> Option<Packet> {
        let tuple = self.conns.get(&id)?.tuple;
        self.finish(id, now, Finish::TimedOut);
        Some(Packet::new(tuple, PacketKind::Fin, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::time::{ms, secs};

    fn fleet() -> Clients {
        Clients::new(Workload::base(), 7)
    }

    fn respond(
        c: &mut Clients,
        now: Cycles,
        id: CConnId,
        tuple: FlowTuple,
        bytes: u32,
    ) -> Reaction {
        // Deliver the response as MSS-sized chunks.
        let mut left = bytes;
        loop {
            let chunk = left.min(1448);
            left -= chunk;
            let pkt = Packet::new(tuple, PacketKind::Data, chunk);
            let r = c.on_server_packet(now, id, &pkt);
            if left == 0 {
                return r;
            }
            assert!(r.send.is_empty(), "no reaction until the full response");
        }
    }

    fn expected_bytes(c: &Clients, file: u32) -> u32 {
        Workload::response_bytes(c.files().size(file as usize))
    }

    #[test]
    fn full_session_six_requests_two_thinks() {
        let mut c = fleet();
        c.start_measurement();
        let (id, syn) = c.start_conn(0);
        assert_eq!(syn.kind, PacketKind::Syn);
        let tuple = syn.tuple;

        // SYN-ACK: handshake ACK + first GET.
        let r = c.on_server_packet(1000, id, &Packet::new(tuple, PacketKind::SynAck, 0));
        assert_eq!(r.send.len(), 2);
        assert_eq!(r.send[0].kind, PacketKind::Ack);
        assert_eq!(r.send[1].kind, PacketKind::Data);
        let mut next_file = r.send[1].tag;

        let mut thinks = 0;
        let mut gets = 1u32;
        let mut now = 2000;
        loop {
            let bytes = expected_bytes(&c, next_file);
            let r = respond(&mut c, now, id, tuple, bytes);
            now += 10_000;
            if r.done {
                assert_eq!(r.send.last().unwrap().kind, PacketKind::Fin);
                break;
            }
            if let Some(t) = r.think_until {
                assert_eq!(t, now - 10_000 + ms(100));
                thinks += 1;
                let pkts = c.on_think(t, id);
                assert_eq!(pkts.len(), 1);
                next_file = pkts[0].tag;
                gets += 1;
                now = t + 1000;
            } else {
                let get = r.send.iter().find(|p| p.kind == PacketKind::Data).unwrap();
                next_file = get.tag;
                gets += 1;
            }
        }
        assert_eq!(gets, 6);
        assert_eq!(thinks, 2);
        assert_eq!(c.completed, 1);
        assert_eq!(c.responses, 6);
        assert_eq!(c.live(), 0);
        assert_eq!(c.latencies.count(), 1);
        // The session spans at least the two think times.
        assert!(c.latencies.max() >= ms(200));
    }

    #[test]
    fn timeout_abandons_connection() {
        let mut c = fleet();
        c.start_measurement();
        let (id, syn) = c.start_conn(0);
        let fin = c.on_timeout(secs(10), id).expect("timed out");
        assert_eq!(fin.kind, PacketKind::Fin);
        assert_eq!(fin.tuple, syn.tuple);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.completed, 0);
        assert!(c.latencies.max() >= secs(10));
        // Idempotent.
        assert!(c.on_timeout(secs(11), id).is_none());
    }

    #[test]
    fn unique_tuples_across_connections() {
        let mut c = fleet();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let (_, syn) = c.start_conn(i);
            assert!(seen.insert(syn.tuple), "duplicate tuple");
        }
    }

    #[test]
    fn conn_lookup_by_tuple() {
        let mut c = fleet();
        let (id, syn) = c.start_conn(0);
        let (other, other_syn) = c.start_conn(0);
        assert_eq!(c.conn_of(&syn.tuple), Some(id));
        assert_eq!(c.conn_of(&other_syn.tuple), Some(other));
        // The same source IP with another port is no connection of ours.
        let stray = FlowTuple {
            src_port: syn.tuple.src_port.wrapping_add(1),
            ..syn.tuple
        };
        assert_eq!(c.conn_of(&stray), None);
        // Nor is an IP below the fleet's range, or one no id has reached.
        assert_eq!(
            c.conn_of(&FlowTuple::client(7, syn.tuple.src_port, 80)),
            None
        );
        let unused = FlowTuple::client(SRC_IP_BASE + 3, syn.tuple.src_port, 80);
        assert_eq!(c.conn_of(&unused), None);
        // A connection that timed out is gone.
        c.on_timeout(secs(10), id).expect("timed out");
        assert_eq!(c.conn_of(&syn.tuple), None);
        assert_eq!(c.conn_of(&other_syn.tuple), Some(other));
    }

    #[test]
    fn completed_connection_is_no_longer_found() {
        let mut c = Clients::new(Workload::with_requests_per_conn(1), 3);
        let (id, syn) = c.start_conn(0);
        let tuple = syn.tuple;
        assert_eq!(c.conn_of(&tuple), Some(id));
        let r = c.on_server_packet(1, id, &Packet::new(tuple, PacketKind::SynAck, 0));
        let bytes = expected_bytes(&c, r.send[1].tag);
        assert!(respond(&mut c, 2, id, tuple, bytes).done);
        assert_eq!(c.conn_of(&tuple), None);
    }

    #[test]
    fn no_reaction_to_stray_packets() {
        let mut c = fleet();
        let (id, syn) = c.start_conn(0);
        // A data packet while still connecting is ignored.
        let r = c.on_server_packet(5, id, &Packet::new(syn.tuple, PacketKind::Data, 100));
        assert!(r.send.is_empty() && !r.done);
    }

    #[test]
    fn reuse_workload_has_no_thinks() {
        let mut c = Clients::new(Workload::with_requests_per_conn(3), 1);
        let (id, syn) = c.start_conn(0);
        let tuple = syn.tuple;
        let r = c.on_server_packet(1, id, &Packet::new(tuple, PacketKind::SynAck, 0));
        let mut file = r.send[1].tag;
        for i in 0..3 {
            let bytes = expected_bytes(&c, file);
            let r = respond(&mut c, 10 + i, id, tuple, bytes);
            assert!(r.think_until.is_none());
            if i < 2 {
                file = r.send[0].tag;
            } else {
                assert!(r.done);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever segment size the server picks, a session always
        /// completes with exactly `requests_per_conn` responses and a FIN.
        #[test]
        fn sessions_complete_under_any_segmentation(
            seed in 1u64..500,
            mss in 100u32..2_000,
            reqs in 1u32..9,
        ) {
            let mut c = Clients::new(Workload::with_requests_per_conn(reqs), seed);
            c.start_measurement();
            let (id, syn) = c.start_conn(0);
            let tuple = syn.tuple;
            let r = c.on_server_packet(1, id, &Packet::new(tuple, PacketKind::SynAck, 0));
            let mut next_file = r.send[1].tag;
            let mut now = 10u64;
            let mut fin_seen = false;
            for _ in 0..reqs {
                let mut left =
                    Workload::response_bytes(c.files().size(next_file as usize));
                loop {
                    let chunk = left.min(mss);
                    left -= chunk;
                    let r = c.on_server_packet(
                        now,
                        id,
                        &Packet::new(tuple, PacketKind::Data, chunk),
                    );
                    now += 10;
                    if left == 0 {
                        if r.done {
                            fin_seen =
                                r.send.iter().any(|p| p.kind == PacketKind::Fin);
                        } else if let Some(get) =
                            r.send.iter().find(|p| p.kind == PacketKind::Data)
                        {
                            next_file = get.tag;
                        }
                        break;
                    }
                    prop_assert!(r.send.is_empty());
                }
            }
            prop_assert!(fin_seen, "session must close");
            prop_assert_eq!(c.responses, u64::from(reqs));
            prop_assert_eq!(c.completed, 1);
            prop_assert_eq!(c.live(), 0);
        }
    }
}
