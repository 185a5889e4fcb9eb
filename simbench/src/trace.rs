//! In-memory spans written out as a Chrome trace-event file.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer (a run, one set-up, one slice of simulated time, one probe
//! batch), kept in memory, and rendered once at exit. Every span is a
//! complete (`"ph": "X"`) event on one thread, so viewers nest them by
//! time; `args.parent` names the enclosing span explicitly as well.

use metrics::json::Json;
use std::time::Instant;

struct Span {
    name: String,
    cat: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    args: Vec<(String, Json)>,
}

/// Records nested spans; see the module docs.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn begin(&mut self, name: impl Into<String>, cat: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            cat,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id];
        s.dur_us = self.epoch.elapsed().as_secs_f64() * 1e6 - s.start_us;
    }

    /// Attaches an argument to span `id`.
    pub fn arg(&mut self, id: usize, key: &str, value: impl Into<Json>) {
        self.spans[id].args.push((key.to_string(), value.into()));
    }

    /// Host seconds span `id` lasted (0 while it is open).
    #[must_use]
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].dur_us / 1e6
    }

    /// The trace as a Chrome trace-event document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Json::obj().field("id", id);
                if let Some(p) = s.parent {
                    args = args.field("parent", p);
                }
                if let Json::Obj(fields) = &mut args {
                    fields.extend(s.args.iter().cloned());
                }
                Json::obj()
                    .field("name", s.name.as_str())
                    .field("cat", s.cat)
                    .field("ph", "X")
                    .field("ts", s.start_us)
                    .field("dur", s.dur_us)
                    .field("pid", 1u64)
                    .field("tid", 1u64)
                    .field("args", args)
            })
            .collect();
        Json::obj()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(j: &Json, key: &str) -> f64 {
        match j.get(key) {
            Some(Json::F64(v)) => *v,
            Some(Json::U64(v)) => *v as f64,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn spans_nest_inside_their_parents() {
        let mut t = Tracer::new();
        let pass = t.begin("pass", "pass");
        let run = t.begin("run", "run");
        let setup = t.begin("setup", "setup");
        t.end(setup);
        let slice = t.begin("slice 0", "slice");
        t.arg(slice, "events", 7u64);
        t.end(slice);
        t.end(run);
        let probe = t.begin("probe", "probe");
        t.end(probe);
        t.end(pass);

        let doc = Json::parse(&t.to_json().render()).expect("trace renders valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 5);
        for ev in events {
            assert_eq!(ev.get("ph"), Some(&Json::Str("X".into())));
            let args = ev.get("args").expect("args");
            if args.get("parent").is_none() {
                assert_eq!(ev.get("name"), Some(&Json::Str("pass".into())));
                continue;
            }
            let parent = &events[num(args, "parent") as usize];
            let (start, end) = (num(ev, "ts"), num(ev, "ts") + num(ev, "dur"));
            let (p_start, p_end) = (num(parent, "ts"), num(parent, "ts") + num(parent, "dur"));
            assert!(p_start <= start && end <= p_end, "child outside parent");
        }
        let parent_of = |i: usize| num(events[i].get("args").unwrap(), "parent") as usize;
        assert_eq!(
            (parent_of(run), parent_of(setup), parent_of(slice)),
            (pass, run, run)
        );
        assert_eq!(parent_of(probe), pass);
        assert_eq!(num(events[slice].get("args").unwrap(), "events"), 7.0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.begin("a", "x");
        let _b = t.begin("b", "x");
        t.end(a);
    }
}
