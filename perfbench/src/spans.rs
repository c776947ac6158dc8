//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public API: name, start, end, the span open around it (its
//! parent) and an id (the round or request it belongs to). Spans stay
//! in memory and are written once, at exit. Untraced runs use a
//! recorder that is off and record nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, such as `gsim_passes::run` or `ClientSession::step`.
    pub name: &'static str,
    /// Round or request id (0 for set-up calls).
    pub id: u64,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span ([`Spans::begin`]).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    paused: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals from [`Spans::summary`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times (duration minus the time their child
    /// spans cover), seconds.
    pub self_s: f64,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            paused: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether this recorder records at all.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording; the traced run pauses it for every
    /// other round so the same process also measures untraced rounds.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Whether spans are being recorded right now.
    fn recording(&self) -> bool {
        self.on && !self.paused
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.recording() {
            return Open(None);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(ix);
        Open(Some(ix))
    }

    /// Closes a span opened by [`Spans::begin`]; spans close in the
    /// reverse order they opened.
    pub fn end(&mut self, open: Open) {
        let Some(ix) = open.0 else { return };
        self.spans[ix].end_ns = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(ix), "spans close in reverse order");
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let r = f();
        self.end(open);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Count, total time and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span in the Chrome trace-event format (load it in
    /// `chrome://tracing` or Perfetto); `args` carry the id and parent.
    ///
    /// # Errors
    ///
    /// The file's create or write error.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(true);
        let outer = sp.begin("outer", 1);
        sp.time("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.end(outer);
        let sum = sp.summary();
        let (o, i) = (sum["outer"], sum["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.total_s >= 0.002);
        assert!((o.total_s - o.self_s - i.total_s).abs() < 1e-9);
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert_eq!(sp.spans()[1].id, 7);
    }

    #[test]
    fn an_off_or_paused_recorder_records_nothing() {
        let mut off = Spans::new(false);
        off.time("x", 0, || ());
        assert!(off.spans().is_empty());
        let mut paused = Spans::new(true);
        paused.set_paused(true);
        paused.time("x", 0, || ());
        assert!(paused.spans().is_empty());
    }
}
