//! Spans recorded from outside the program, around calls into it.
//!
//! A span has a name, a start and end (seconds since the tracer was
//! made) and the span that was open when it began. Spans stay in memory
//! and are printed when the run ends. With recording off, [`Tracer::time`]
//! still measures the call (the end-to-end metrics need phase times) but
//! keeps nothing.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

pub struct Tracer {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Self {
            origin: Instant::now(),
            record,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> f64 {
        let start = self.now();
        if self.record {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start,
                end: start,
            });
            self.open.push(self.spans.len() - 1);
        }
        start
    }

    /// Close the innermost open span; returns its duration given the
    /// start [`Tracer::enter`] returned.
    pub fn exit(&mut self, start: f64) -> f64 {
        let end = self.now();
        if self.record {
            if let Some(id) = self.open.pop() {
                self.spans[id].end = end;
            }
        }
        end - start
    }

    /// Run `f` inside a span named `name`; returns its result and
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.enter(name);
        let out = f();
        (out, self.exit(start))
    }

    /// Print the span tree, collapsed by (parent name, name): total and
    /// self time and the number of calls.
    pub fn print(&self) {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut rows: BTreeMap<(&'static str, &'static str), (f64, f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-", |p| self.spans[p].name);
            let e = rows.entry((parent, s.name)).or_default();
            e.0 += s.end - s.start;
            e.1 += s.end - s.start - child_time[i];
            e.2 += 1;
        }
        println!(
            "spans ({} recorded; parent > name: total, self, calls):",
            self.spans.len()
        );
        for ((parent, name), (total, self_s, calls)) in rows {
            println!("  {parent:>14} > {name:<20} {total:>10.4} s {self_s:>10.4} s {calls:>6}");
        }
    }
}
