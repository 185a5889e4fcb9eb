//! Simulated outputs pinned at seed 1.
//!
//! `pins.json` (compiled in) holds, per workload, the fingerprint, the
//! requests served and the events executed of a pass at [`PIN_SEED`],
//! plus the search's chosen rate per configuration. Any other seed is
//! checked by replay equality across repeats and clean audits alone.

use crate::workloads::{Outcome, Workload};
use metrics::json::Json;

/// The seed the pins were recorded at.
pub const PIN_SEED: u64 = 1;
const PINS_JSON: &str = include_str!("../pins.json");

/// The pinned outputs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    pub fingerprint: u64,
    pub served: u64,
    pub events: u64,
    pub rates: Vec<f64>,
}

impl Pin {
    #[must_use]
    pub fn of(o: &Outcome) -> Self {
        Self {
            fingerprint: o.fingerprint,
            served: o.served,
            events: o.events,
            rates: o.rates.clone(),
        }
    }

    /// One message per pinned value `o` misses; empty when the pin
    /// holds. Fingerprints read 0 under the `fast` feature, so only
    /// `served`, events and rates are checked there.
    #[must_use]
    pub fn misses(&self, o: &Outcome) -> Vec<String> {
        let mut v = Vec::new();
        if !cfg!(feature = "fast") && o.fingerprint != self.fingerprint {
            v.push(format!(
                "fingerprint {:#018x} != pinned {:#018x}",
                o.fingerprint, self.fingerprint
            ));
        }
        if o.served != self.served {
            v.push(format!("served {} != pinned {}", o.served, self.served));
        }
        if o.events != self.events {
            v.push(format!("events {} != pinned {}", o.events, self.events));
        }
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&o.rates) != bits(&self.rates) {
            v.push(format!("rates {:?} != pinned {:?}", o.rates, self.rates));
        }
        v
    }
}

/// A fingerprint as the benchmark's JSON files write it.
#[must_use]
pub fn hex(fingerprint: u64) -> Json {
    format!("{fingerprint:#018x}").into()
}

/// Reads a [`hex`] fingerprint.
///
/// # Errors
///
/// When `j` is not a 0x-prefixed hex string.
pub fn parse_hex(j: Option<&Json>) -> Result<u64, String> {
    match j {
        Some(Json::Str(s)) => s
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("fingerprint {s:?} is not 0x-prefixed hex")),
        other => Err(format!("fingerprint: expected a string, got {other:?}")),
    }
}

/// Reads the search's rates.
///
/// # Errors
///
/// When `j` is not an array of numbers.
pub fn parse_rates(j: Option<&Json>) -> Result<Vec<f64>, String> {
    match j {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|r| match r {
                Json::F64(x) => Ok(*x),
                Json::U64(x) => Ok(*x as f64),
                other => Err(format!("rates: {other:?} is not a number")),
            })
            .collect(),
        other => Err(format!("rates: expected an array, got {other:?}")),
    }
}

/// Whether two passes of one `(workload, seed)` replayed identically.
#[must_use]
pub fn same_replay(a: &Outcome, b: &Outcome) -> bool {
    Pin::of(a).misses(b).is_empty()
}

/// The pin table.
#[derive(Debug, Clone, PartialEq)]
pub struct Pins(pub Vec<(Workload, Pin)>);

impl Pins {
    /// The pins compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the committed `pins.json` is malformed (a build-time
    /// input, not user input).
    #[must_use]
    pub fn committed() -> Self {
        Self::parse(PINS_JSON).expect("pins.json is well-formed")
    }

    #[must_use]
    pub fn get(&self, w: Workload) -> Option<&Pin> {
        self.0.iter().find(|(x, _)| *x == w).map(|(_, p)| p)
    }

    /// Parses the `pins.json` format.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or unknown entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        if doc.get("seed") != Some(&Json::U64(PIN_SEED)) {
            return Err(format!("pins must be recorded at seed {PIN_SEED}"));
        }
        let Some(Json::Obj(entries)) = doc.get("workloads") else {
            return Err("missing workloads object".into());
        };
        let mut pins = Vec::new();
        for (name, e) in entries {
            let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let u64_of = |key: &str| match e.get(key) {
                Some(Json::U64(v)) => Ok(*v),
                _ => Err(format!("{name}: {key} must be an unsigned integer")),
            };
            let in_entry = |e: String| format!("{name}: {e}");
            let fingerprint = parse_hex(e.get("fingerprint")).map_err(in_entry)?;
            let rates = match e.get("rates") {
                None => Vec::new(),
                r => parse_rates(r).map_err(in_entry)?,
            };
            pins.push((
                w,
                Pin {
                    fingerprint,
                    served: u64_of("served")?,
                    events: u64_of("events_executed")?,
                    rates,
                },
            ));
        }
        Ok(Pins(pins))
    }

    /// Renders the `pins.json` format.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut entries = Json::obj();
        for (w, p) in &self.0 {
            let mut e = Json::obj()
                .field("fingerprint", hex(p.fingerprint))
                .field("served", p.served)
                .field("events_executed", p.events);
            if !p.rates.is_empty() {
                e = e.field(
                    "rates",
                    Json::Arr(p.rates.iter().map(|&r| r.into()).collect()),
                );
            }
            entries = entries.field(w.name(), e);
        }
        Json::obj()
            .field("seed", PIN_SEED)
            .field("workloads", entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            setups: vec![0.01],
            parts: vec![1.0],
            events: 6_150_000,
            served: 97_000,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            rates: vec![26_667.0, 42_667.2],
            violations: Vec::new(),
        }
    }

    #[test]
    fn committed_pins_cover_every_workload() {
        let pins = Pins::committed();
        for w in Workload::ALL {
            assert!(pins.get(w).is_some(), "{} has no pin", w.name());
        }
        assert!(!pins.get(Workload::Search16c).unwrap().rates.is_empty());
    }

    #[test]
    fn pins_round_trip_through_json() {
        let pins = Pins(vec![(Workload::Search16c, Pin::of(&outcome()))]);
        let text = pins.to_json().render_pretty();
        assert_eq!(Pins::parse(&text), Ok(pins));
    }

    #[test]
    fn a_corrupted_pin_fails() {
        let o = outcome();
        let pin = Pin::of(&o);
        assert!(pin.misses(&o).is_empty());
        let corruptions: [fn(&mut Pin); 3] = [
            |p| p.served += 1,
            |p| p.events -= 1,
            |p| p.rates[1] *= 1.0 + f64::EPSILON,
        ];
        for corrupt in corruptions {
            let mut bad = pin.clone();
            corrupt(&mut bad);
            assert_eq!(bad.misses(&o).len(), 1, "{bad:?} must miss");
        }
        let mut bad = pin.clone();
        bad.fingerprint ^= 1;
        assert_eq!(bad.misses(&o).is_empty(), cfg!(feature = "fast"));
        let mut other = o.clone();
        other.served -= 1;
        assert!(!same_replay(&o, &other));
    }

    #[test]
    fn malformed_pins_are_errors() {
        assert!(Pins::parse(r#"{"seed": 2, "workloads": {}}"#).is_err());
        assert!(Pins::parse(r#"{"seed": 1, "workloads": {"nope": {}}}"#).is_err());
        assert!(Pins::parse(
            r#"{"seed": 1, "workloads": {"fig6_fine": {"fingerprint": "12", "served": 1, "events_executed": 2}}}"#
        )
        .is_err());
    }
}
