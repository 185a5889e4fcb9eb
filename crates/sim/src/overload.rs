//! The overload-control and self-healing plane: configuration and stats.
//!
//! PR 3 gave the simulator a fault *plane* (packet loss, SYN-overflow
//! drops, core stalls); this module describes the server's *defenses*:
//!
//! * **SYN cookies** — when a core's accept backlog or the shared request
//!   table saturates, the kernel answers SYNs statelessly and validates
//!   the cookie on the completing ACK (Linux `tcp_syncookies`).
//! * **Adaptive shedding** — per-core hysteresis (high/low watermarks on
//!   the local accept backlog) that switches SYN handling into cookie
//!   mode under pressure and back out once drained, so the mode cannot
//!   flap on every packet.
//! * **Half-open reaping** — request-table entries get a TTL; on expiry
//!   the SYN/ACK is retransmitted up to `synack_retries` times
//!   (Linux-style) before the request is reaped.
//! * **Core hotplug + watchdog** — explicit [`HotplugEvent`] schedules or
//!   a heartbeat watchdog take a core offline, re-home its accept queue
//!   to a live core, and bring it back online later.
//!
//! The disabled configuration ([`OverloadConfig::default`]) is
//! **fingerprint-neutral**: it schedules no events, draws no RNG, and
//! leaves every golden fingerprint bit-identical.

use crate::time::Cycles;

/// Half-open (SYN_RCVD) request reaping policy, the simulated equivalent
/// of Linux's SYN/ACK retransmission timer plus `synack_retries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReapPolicy {
    /// Time a request may stay half-open before the first SYN/ACK
    /// retransmission; doubles on every retry.
    pub ttl: Cycles,
    /// SYN/ACK retransmissions allowed before the request is reaped
    /// (Linux default `net.ipv4.tcp_synack_retries = 5`).
    pub synack_retries: u32,
}

impl ReapPolicy {
    /// A Linux-flavoured default scaled to simulation time: 50 ms initial
    /// TTL, 3 retransmissions.
    #[must_use]
    pub fn default_policy() -> Self {
        Self {
            ttl: crate::time::ms(50),
            synack_retries: 3,
        }
    }

    /// The delay before expiry number `attempt` (1-based): `ttl <<
    /// (attempt - 1)`, capped so the shift never overflows.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Cycles {
        self.ttl
            .saturating_mul(1 << attempt.saturating_sub(1).min(16))
    }
}

/// Silent-core watchdog policy: a periodic heartbeat scan that declares a
/// core dead when its busy horizon runs too far past the present (a stall
/// window has frozen it) and revives it once the horizon clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Heartbeat-scan period.
    pub interval: Cycles,
    /// A core whose busy horizon exceeds `now + dead_after` is declared
    /// dead and its accept queue re-homed.
    pub dead_after: Cycles,
}

impl WatchdogPolicy {
    /// A default tuned to the fault plane's stall windows: scan every
    /// 10 ms, declare dead past a 50 ms silent horizon.
    #[must_use]
    pub fn default_policy() -> Self {
        Self {
            interval: crate::time::ms(10),
            dead_after: crate::time::ms(50),
        }
    }
}

/// One scheduled core-hotplug transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotplugEvent {
    /// Core to transition (wrapped modulo the active core count).
    pub core: u16,
    /// Simulated time of the transition.
    pub at: Cycles,
    /// `true` brings the core online, `false` takes it offline.
    pub up: bool,
}

/// Shedding high watermark: the fraction of the per-core backlog cap at
/// or above which SYN handling switches to cookie mode.
pub const SHED_HIGH: f64 = 0.75;

/// Shedding low watermark: the fraction at or below which cookie mode
/// switches back off (hysteresis).
pub const SHED_LOW: f64 = 0.10;

/// The server's overload-control configuration. The default is fully
/// disabled and fingerprint-neutral.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Enable stateless SYN cookies when a backlog saturates.
    pub syn_cookies: bool,
    /// Cap on total half-open requests before cookie mode engages
    /// regardless of per-core backlogs; `None` uses the listen backlog.
    pub half_open_cap: Option<usize>,
    /// Half-open reaping policy; `None` leaves requests until run end
    /// (the seed behavior).
    pub reap: Option<ReapPolicy>,
    /// Silent-core watchdog; `None` means only explicit hotplug
    /// schedules take cores down.
    pub watchdog: Option<WatchdogPolicy>,
}

impl OverloadConfig {
    /// The disabled plane: no cookies, no reaping, no watchdog, no extra
    /// events, no RNG draws.
    #[must_use]
    pub fn none() -> Self {
        Self {
            syn_cookies: false,
            half_open_cap: None,
            reap: None,
            watchdog: None,
        }
    }

    /// Whether the plane can do anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.syn_cookies || self.reap.is_some() || self.watchdog.is_some()
    }
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters of overload-plane actions taken during a run; carried in the
/// run audit and balanced by dedicated conservation laws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Stateless SYN/ACKs sent (cookies issued).
    pub cookies_issued: u64,
    /// Cookie ACKs that validated against an outstanding cookie.
    pub cookies_validated: u64,
    /// Cookies that never came back (superseded or still outstanding at
    /// run end).
    pub cookies_expired: u64,
    /// Validated cookies that established a connection (the rest hit a
    /// full backlog).
    pub cookies_established: u64,
    /// Validated cookies dropped at a full accept backlog.
    pub cookie_drops: u64,
    /// Half-open requests reaped at the retry cap.
    pub reaped: u64,
    /// SYN/ACK retransmissions for half-open requests.
    pub synack_retrans: u64,
    /// Accept-queue entries migrated off dead cores.
    pub rehomed_conns: u64,
    /// Re-home operations executed (one per core death).
    pub rehome_ops: u64,
    /// Cores taken offline (schedule or watchdog).
    pub core_downs: u64,
    /// Cores brought back online.
    pub core_ups: u64,
    /// Shedding transitions into cookie mode.
    pub shed_on: u64,
    /// Shedding transitions out of cookie mode.
    pub shed_off: u64,
    /// Watchdog dead-core declarations.
    pub watchdog_marks: u64,
}

impl OverloadStats {
    /// Whether the plane never acted (required when it is disabled and no
    /// hotplug schedule exists).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ms;

    #[test]
    fn disabled_plane_is_inactive() {
        let c = OverloadConfig::none();
        assert!(!c.is_active());
        assert_eq!(c, OverloadConfig::default());
    }

    #[test]
    fn any_knob_activates() {
        let mut c = OverloadConfig::none();
        c.syn_cookies = true;
        assert!(c.is_active());

        let mut c = OverloadConfig::none();
        c.reap = Some(ReapPolicy::default_policy());
        assert!(c.is_active());

        let mut c = OverloadConfig::none();
        c.watchdog = Some(WatchdogPolicy::default_policy());
        assert!(c.is_active());
    }

    #[test]
    fn reap_backoff_doubles_and_saturates() {
        let rp = ReapPolicy {
            ttl: 100,
            synack_retries: 3,
        };
        assert_eq!(rp.backoff(1), 100);
        assert_eq!(rp.backoff(2), 200);
        assert_eq!(rp.backoff(3), 400);
        assert!(rp.backoff(80) >= rp.backoff(17));
    }

    #[test]
    fn default_watchdog_scans_faster_than_it_declares() {
        let w = WatchdogPolicy::default_policy();
        assert!(w.interval < w.dead_after);
        assert!(w.interval >= ms(1));
    }

    #[test]
    fn stats_zero_detection() {
        let mut s = OverloadStats::default();
        assert!(s.is_zero());
        s.cookies_issued = 1;
        assert!(!s.is_zero());
    }
}
