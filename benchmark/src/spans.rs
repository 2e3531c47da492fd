//! Harness spans: one record around every call the harness makes into a
//! layer — name, start, end, the span that caused it, and the pass it
//! belongs to — kept in memory and written out when the run ends. A
//! span's self time is its duration minus what its children cover.
//!
//! Every call is timed whether or not spans are recorded (the harness
//! needs the duration as the job's latency); recording is switched on
//! only for the traced passes, so the end-to-end numbers never pay for
//! it. Spans inside the program are a later issue (ROADMAP item 5).

use crate::json::Json;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    label: String,
    pass: u32,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
    /// Calls folded into this record: 1 for a plain span, more for an
    /// aggregate of per-job calls (`server.submit`, `server.wait`) whose
    /// individual spans would be hundreds of thousands per run.
    count: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Switch recording on or off (between passes, never inside one).
    pub fn record(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.on = on;
    }

    /// All spans recorded until the next call share this pass id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Run `f` as a span named `name` (with a free-form `label` such as
    /// the workload or configuration) and return its result and how long
    /// it took.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, Duration) {
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                label: label.to_string(),
                pass: self.pass,
                parent: self.stack.last().copied(),
                start_ns: 0,
                dur_ns: 0,
                count: 1,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let result = f(self);
        let dur = start.elapsed();
        if let Some(i) = slot {
            self.stack.pop();
            self.spans[i].start_ns = ns(start.duration_since(self.epoch));
            self.spans[i].dur_ns = ns(dur);
        }
        (result, dur)
    }

    /// Record `count` calls that together took `total` as one aggregate
    /// child of the current span.
    pub fn aggregate(&mut self, name: &'static str, count: u64, total: Duration) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            label: String::new(),
            pass: self.pass,
            parent,
            start_ns,
            dur_ns: ns(total),
            count,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: duration minus the durations of its direct
    /// children (aggregates included), floored at 0.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Self time summed by span name, largest first: where the traced
    /// passes' time went, as the harness saw it.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, Duration)> {
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += s.count;
                    entry.2 += own;
                }
                None => by_name.push((s.name, s.count, own)),
            }
        }
        by_name.sort_by_key(|entry| std::cmp::Reverse(entry.2));
        by_name
            .into_iter()
            .map(|(n, c, t)| (n, c, Duration::from_nanos(t)))
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("label", Json::str(s.label.as_str())),
                    ("pass", Json::Num(f64::from(s.pass))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num((s.start_ns + s.dur_ns) as f64)),
                    ("self_ns", Json::Num(own[id] as f64)),
                    ("count", Json::Num(s.count as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str("rph-benchmark-spans/v1")),
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_is_recorded_while_off_but_calls_are_still_timed() {
        let mut s = Spans::new();
        let (v, dur) = s.scope("a", "", |_| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(dur >= Duration::from_millis(2));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new();
        s.record(true);
        s.next_pass();
        s.scope("outer", "o", |s| {
            s.scope("inner", "i", |_| {
                std::thread::sleep(Duration::from_millis(3))
            });
            std::thread::sleep(Duration::from_millis(2));
            s.aggregate("agg", 10, Duration::from_millis(1));
        });
        assert_eq!(s.len(), 3);
        let j = s.to_json("w");
        let spans = j.get("spans").and_then(Json::as_arr).unwrap();
        let field = |i: usize, k: &str| spans[i].get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(field(2, "count"), 10.0);
        assert_eq!(field(0, "pass"), 1.0);
        let outer = field(0, "end_ns") - field(0, "start_ns");
        let inner = field(1, "end_ns") - field(1, "start_ns");
        assert!(inner >= 3e6 && outer >= inner);
        assert_eq!(field(0, "self_ns"), outer - inner - 1e6);
        assert_eq!(field(1, "self_ns"), inner);
        let by_name = s.self_time_by_name();
        assert_eq!(by_name.len(), 3);
        // Largest self time first; which span that is depends on how far
        // the host lets each sleep overshoot.
        assert!(by_name.windows(2).all(|w| w[0].2 >= w[1].2));
        assert_eq!(by_name.last().unwrap().0, "agg");
    }
}
