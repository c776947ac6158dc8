//! Interleaved rounds: every configuration of a workload runs one
//! short, fixed-size unit of work per round, round after round, until
//! the run's time is up, so an episode of the host that lasts a few
//! rounds touches every configuration alike. A rate is then an order
//! statistic of its per-round rates (see `common::sustained`).

use crate::report::Ops;
use crate::spans::Spans;
use std::time::Instant;

/// Target seconds of one lane's unit of work: short, so a run holds
/// hundreds of rounds and a host episode spans many of them.
const ROUND_SECS: f64 = 0.015;
/// Fewest rounds a run makes, so a traced run has rounds with and
/// without spans however short `seconds` is.
const MIN_ROUNDS: u64 = 6;

/// What one unit of work measured.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Work done (cycles, branches or requests).
    pub work: f64,
    /// Seconds the timed part took (checks run outside it).
    pub secs: f64,
    /// Lockstep requests among the work, for a lane that also measures
    /// `req_per_s`; 0 otherwise.
    pub reqs: u64,
}

impl Sample {
    /// `work` done in `secs`, no requests counted.
    pub fn new(work: f64, secs: f64) -> Sample {
        Sample {
            work,
            secs,
            reqs: 0,
        }
    }
}

/// State every lane shares: failure accounting and the span recorder.
#[derive(Debug)]
pub struct Ctx {
    /// Checked operations.
    pub ops: Ops,
    /// Spans of the traced run (off in untraced runs).
    pub spans: Spans,
    /// Current round number, the id of round spans.
    pub round: u64,
    /// True while lanes warm up and size their units; samples taken
    /// then are not results.
    pub calibrating: bool,
}

impl Ctx {
    /// A context whose recorder records spans when `trace` is set.
    pub fn new(trace: bool) -> Ctx {
        Ctx {
            ops: Ops::default(),
            spans: Spans::new(trace),
            round: 0,
            calibrating: false,
        }
    }
}

/// A lane's unit of work: runs `size` units and reports what it
/// measured.
pub type Unit<'a> = Box<dyn FnMut(u64, &mut Ctx) -> Sample + 'a>;

/// One configuration measured in rounds.
pub struct Lane<'a> {
    /// The end-to-end metric this lane measures: a rate, or with
    /// `per_unit` the seconds one unit of work takes.
    pub rate: &'static str,
    /// Whether the metric is seconds per unit rather than a rate.
    pub per_unit: bool,
    unit: Unit<'a>,
    size: u64,
    /// Per-round rates of rounds without spans.
    pub untraced: Vec<f64>,
    /// Per-round rates of rounds with spans (traced run only).
    pub traced: Vec<f64>,
    /// Per-round request rates of untraced rounds, when the lane's
    /// samples count requests.
    pub reqs_untraced: Vec<f64>,
    /// The same, of traced rounds.
    pub reqs_traced: Vec<f64>,
}

impl<'a> Lane<'a> {
    /// A lane for `rate` running `unit`.
    pub fn new(rate: &'static str, unit: Unit<'a>) -> Lane<'a> {
        Lane {
            rate,
            per_unit: false,
            unit,
            size: 1,
            untraced: Vec::new(),
            traced: Vec::new(),
            reqs_untraced: Vec::new(),
            reqs_traced: Vec::new(),
        }
    }

    /// A lane whose metric `name` is the seconds one unit of `unit`
    /// takes (a set-up), reduced like the rates: the time per unit the
    /// lane stayed under in 90% of its rounds.
    pub fn per_unit(name: &'static str, unit: Unit<'a>) -> Lane<'a> {
        Lane {
            per_unit: true,
            ..Lane::new(name, unit)
        }
    }

    /// Warms the lane up and sizes its unit so one round takes about
    /// `target` seconds.
    fn calibrate(&mut self, ctx: &mut Ctx, target: f64) {
        let mut size = 1u64;
        while size < 1 << 30 && (self.unit)(size, ctx).secs < target / 4.0 {
            size *= 2;
        }
        // Resize from the median of a few warm units: a single cold or
        // lucky unit mis-sizes every round after it.
        for _ in 0..2 {
            let secs: Vec<f64> = (0..3).map(|_| (self.unit)(size, ctx).secs).collect();
            let scaled = size as f64 * target / crate::stats::median(&secs).max(1e-9);
            size = (scaled.round() as u64).max(1);
        }
        self.size = size;
    }
}

/// Runs rounds of every lane, rotating which lane goes first, until
/// `seconds` have passed (and at least `MIN_ROUNDS` rounds ran). With
/// the recorder on, every other round records spans, so a traced run
/// also measures untraced rounds and the difference is the tracing
/// overhead.
pub fn run(lanes: &mut [Lane<'_>], ctx: &mut Ctx, seconds: f64) {
    ctx.spans.set_paused(true);
    ctx.calibrating = true;
    for lane in lanes.iter_mut() {
        lane.calibrate(ctx, ROUND_SECS);
    }
    ctx.calibrating = false;
    let t0 = Instant::now();
    let n = lanes.len();
    let mut round = 0u64;
    while round < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        let traced = ctx.spans.is_on() && round % 2 == 1;
        ctx.spans.set_paused(!traced);
        ctx.round = round;
        for i in 0..n {
            let lane = &mut lanes[(i + round as usize) % n];
            let open = ctx.spans.begin(lane.rate, round);
            let s = (lane.unit)(lane.size, ctx);
            ctx.spans.end(open);
            let secs = s.secs.max(1e-12);
            let (rates, reqs) = if traced {
                (&mut lane.traced, &mut lane.reqs_traced)
            } else {
                (&mut lane.untraced, &mut lane.reqs_untraced)
            };
            rates.push(s.work / secs);
            if s.reqs > 0 {
                reqs.push(s.reqs as f64 / secs);
            }
        }
        round += 1;
    }
    ctx.spans.set_paused(false);
}
