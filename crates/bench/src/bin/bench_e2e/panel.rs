//! The panel runner: a workload is a fixed panel of operations replayed
//! for identical passes by one driver thread (a closed loop with one
//! client — on a two-vCPU shared box an open-loop rate sweep would
//! measure the host, not the program).

use crate::fixture::Scale;
use crate::oracle::Verdict;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Passes a timed window must see: each is one more chance for every
/// op to run undisturbed.
pub const P_MIN: usize = 16;

/// Per-layer metric values by name; a layer a workload never enters
/// stays absent and reads 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload, already set up.
pub trait Workload {
    /// Replays the panel once: pushes the wall time (ns) of each panel
    /// op onto `times`, in panel order, and returns how many ops failed
    /// (an error reply, or a reply differing from the first pass's).
    fn pass(&mut self, tracer: &mut Tracer, times: &mut Vec<f64>) -> u64;

    /// Work units one pass completes (the unit is [`Spec::unit`]).
    fn units_per_pass(&self) -> f64;

    /// Layer measurements for the traced run, taken after the passes
    /// and before teardown: this workload's spans reduced to metrics,
    /// plus direct calls into single layers, counters and sizes.
    fn probes(&mut self, tracer: &Tracer, layers: &mut Layers);

    /// The untimed verification pass: every distinct panel reply against
    /// the oracle, plus the workload's `quality_at_10`. Tears down what
    /// set-up started (servers, connections) and leaves the counters
    /// only teardown can read in `layers`.
    fn verify(&mut self, layers: &mut Layers) -> Verdict;
}

/// The static description of a workload.
pub struct Spec {
    /// Permanent name.
    pub name: &'static str,
    /// What `throughput_ops_s` counts.
    pub unit: &'static str,
    /// Least passes in a timed window at full scale.
    pub p_min: usize,
    /// Builds the fixture and the panel from the seed; phases are
    /// recorded on the tracer as set-up spans.
    pub build: fn(&mut Tracer, u64, Scale) -> Box<dyn Workload>,
}

/// The timed (or traced) window of one run.
#[derive(Debug)]
pub struct PanelRun {
    /// `passes[p][i]`: wall time (ns) of panel op `i` in pass `p`.
    pub passes: Vec<Vec<f64>>,
    /// Ops that failed across all passes.
    pub failed: u64,
    /// Wall time of the window, in seconds.
    pub wall_s: f64,
    /// CPU time (all threads) the process used during the window, ms.
    pub cpu_ms: f64,
}

impl PanelRun {
    /// Ops attempted across all passes.
    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|pass| pass.len() as u64).sum()
    }

    /// Every raw sample, ascending.
    pub fn sorted_samples(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.passes.iter().flatten().copied().collect();
        stats::sort(&mut all);
        all
    }
}

/// Replays the panel until the window has seen both `p_min` passes and
/// `seconds` seconds. Refuses (an error, no result) when the host is so
/// slow that `p_min` passes do not fit in three times the window: a
/// minimum over fewer passes would be reported with false confidence.
pub fn run_panel(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    p_min: usize,
    seconds: f64,
) -> Result<PanelRun, String> {
    let cap = (3.0 * seconds).max(30.0);
    let cpu_before = stats::cpu_ms();
    let start = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut failed = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if passes.len() >= p_min && elapsed >= seconds {
            break;
        }
        if elapsed > cap {
            return Err(format!(
                "timed window saw {} of the {p_min} passes it needs in {elapsed:.0} s; refusing to report",
                passes.len()
            ));
        }
        let mut times = Vec::with_capacity(passes.first().map_or(0, Vec::len));
        failed += workload.pass(tracer, &mut times);
        if passes.first().is_some_and(|first| first.len() != times.len()) {
            return Err(format!(
                "pass {} ran {} ops, the first ran {}",
                passes.len(),
                times.len(),
                passes[0].len()
            ));
        }
        passes.push(times);
    }
    Ok(PanelRun {
        passes,
        failed,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_ms: stats::cpu_ms() - cpu_before,
    })
}

/// Times `f`, pushing its wall time (ns) onto `times`.
pub fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    times.push(start.elapsed().as_nanos() as f64);
    out
}

/// Settles one op's reply against the first pass's. The first reply is
/// kept (verification checks it against the oracle); a missing reply,
/// or one that differs from the kept one, is a failed op.
pub fn settle<T: PartialEq>(first: &mut Option<T>, got: Option<T>) -> u64 {
    match (got, &*first) {
        (None, _) => 1,
        (Some(reply), Some(want)) => u64::from(reply != *want),
        (reply, None) => {
            *first = reply;
            0
        }
    }
}

/// Fastest wall time (µs) of `reps` calls of `f` — the quiet time of
/// one direct call into a layer.
pub fn quiet_call_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        std::hint::black_box(timed(&mut times, &mut f));
    }
    stats::minimum(times) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose ops do nothing, counting its passes.
    struct Idle {
        ops: usize,
        passes: usize,
        shrink_after: Option<usize>,
    }

    impl Workload for Idle {
        fn pass(&mut self, _tracer: &mut Tracer, times: &mut Vec<f64>) -> u64 {
            self.passes += 1;
            let ops =
                if self.shrink_after.is_some_and(|p| self.passes > p) { self.ops - 1 } else { self.ops };
            for _ in 0..ops {
                timed(times, || ());
            }
            1
        }
        fn units_per_pass(&self) -> f64 {
            self.ops as f64
        }
        fn verify(&mut self, _layers: &mut Layers) -> Verdict {
            Verdict::default()
        }
        fn probes(&mut self, _tracer: &Tracer, _layers: &mut Layers) {}
    }

    #[test]
    fn a_zero_second_window_runs_exactly_p_min_passes() {
        let mut w = Idle { ops: 3, passes: 0, shrink_after: None };
        let run = run_panel(&mut w, &mut Tracer::off(), 4, 0.0).unwrap();
        assert_eq!(run.passes.len(), 4);
        assert_eq!(run.attempted(), 12);
        assert_eq!(run.failed, 4);
        assert_eq!(run.sorted_samples().len(), 12);
    }

    #[test]
    fn the_window_keeps_going_until_its_seconds_are_up() {
        let mut w = Idle { ops: 1, passes: 0, shrink_after: None };
        let run = run_panel(&mut w, &mut Tracer::off(), 2, 0.05).unwrap();
        assert!(run.passes.len() > 2, "idle passes are far shorter than the window");
        assert!(run.wall_s >= 0.05);
    }

    #[test]
    fn replies_settle_against_the_first_pass() {
        let mut first = None;
        assert_eq!(settle(&mut first, Some(vec![(3u32, 0.5)])), 0);
        assert_eq!(settle(&mut first, Some(vec![(3u32, 0.5)])), 0);
        assert_eq!(settle(&mut first, Some(vec![(3u32, 0.25)])), 1, "a reply that changes is a failed op");
        assert_eq!(settle(&mut first, None), 1, "so is a missing one");
        assert_eq!(first, Some(vec![(3u32, 0.5)]));
    }

    #[test]
    fn a_pass_of_a_different_length_is_refused() {
        let mut w = Idle { ops: 3, passes: 0, shrink_after: Some(2) };
        let err = run_panel(&mut w, &mut Tracer::off(), 4, 0.0).unwrap_err();
        assert!(err.contains("ran 2 ops"), "{err}");
    }
}
