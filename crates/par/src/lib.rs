//! # gmlfm-par
//!
//! Std-only parallel execution for the GML-FM workspace: two
//! order-preserving data-parallel helpers on [`std::thread::scope`].
//!
//! The vendored dependency set has no rayon, so this crate provides the
//! minimal primitives the offline hot paths need:
//!
//! * [`par_blocks`] — the one fan-out primitive: splits `0..n` into
//!   contiguous blocks (one per requested thread), runs the first on
//!   the calling thread and each other on a scoped thread of its own,
//!   and concatenates the per-block outputs in input order. Use it
//!   directly when each worker wants its own scratch state (e.g. a
//!   `TopNRanker` per block of users).
//! * [`par_map`] — the per-element map over a slice, a one-line wrapper
//!   over [`par_blocks`].
//!
//! Both are **bit-identical** to the serial evaluation for pure
//! functions, at every thread count. Offline work rides on them — the
//! evaluation protocols' per-case blocks, batch scoring
//! (`FrozenModel::scores_with`) and the IVF index build — which is what
//! lets the eval protocols stay exactly reproducible while scaling
//! across cores. A served request does not: it runs on the connection
//! thread that received it.
//!
//! How many threads run is a per-call [`Parallelism`] value, defaulting
//! to [`Parallelism::auto`]: the `GMLFM_THREADS` environment variable
//! when set, otherwise [`std::thread::available_parallelism`]. Passing
//! [`Parallelism::serial`] (or any count of 1) makes that call run
//! inline on the calling thread. Setting `GMLFM_THREADS=1` serialises
//! every *defaulted* call the same way; a caller that passes an explicit
//! `Parallelism::threads(n > 1)` still spawns `n - 1` threads — the env
//! var changes defaults, it does not override explicit requests.
//! Results are unaffected either way.
//!
//! A spawned thread costs tens of microseconds per call, so a fan-out
//! pays only for work well above that; callers with less work pass
//! [`Parallelism::serial`].
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Environment variable that sets the workspace's default parallelism,
/// the [`Parallelism::auto`] value. `GMLFM_THREADS=1` makes every
/// defaulted call run inline; read once per process.
pub const THREADS_ENV: &str = "GMLFM_THREADS";

/// How many threads a parallel helper may use for one call: work is
/// partitioned into this many blocks, one thread each. Results of the
/// order-preserving helpers do not depend on the number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// The ambient default: `GMLFM_THREADS` when set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`]
    /// (falling back to 1 when even that is unavailable).
    ///
    /// Resolved **once per process** and cached: `available_parallelism`
    /// costs microseconds per call (affinity/cgroup inspection), which
    /// would dominate small serving batches if paid per request. Set
    /// `GMLFM_THREADS` before the process starts; later changes to the
    /// environment are not observed.
    #[allow(clippy::disallowed_methods)] // the one cached read
    pub fn auto() -> Self {
        static AUTO: OnceLock<Parallelism> = OnceLock::new();
        *AUTO.get_or_init(|| {
            if let Ok(raw) = std::env::var(THREADS_ENV) {
                if let Ok(n) = raw.trim().parse::<usize>() {
                    return Self::threads(n);
                }
            }
            let n = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
            Self::threads(n)
        })
    }

    /// Exactly `n` threads; `0` is clamped to `1` (serial).
    pub fn threads(n: usize) -> Self {
        Self(NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero"))
    }

    /// The single-threaded escape hatch: helpers run inline.
    pub fn serial() -> Self {
        Self::threads(1)
    }

    /// The requested thread count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// True when this request runs inline on the calling thread.
    pub fn is_serial(self) -> bool {
        self.0.get() == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::auto()
    }
}

/// Splits `0..n` into at most `blocks` contiguous, near-equal ranges in
/// order (the first `n % blocks` ranges are one element longer): the
/// partition [`par_blocks`] hands its workers.
fn block_ranges(n: usize, blocks: usize) -> Vec<Range<usize>> {
    let blocks = blocks.min(n).max(1);
    let base = n / blocks;
    let extra = n % blocks;
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0;
    for b in 0..blocks {
        let len = base + usize::from(b < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over `items`, preserving order. The output is bit-identical
/// to `items.iter().map(f).collect()` for pure `f`, at every
/// [`Parallelism`].
pub fn par_map<T: Sync, R: Send>(par: Parallelism, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_blocks(par, items.len(), |range| items[range].iter().map(&f).collect())
}

/// Splits `0..n` into one contiguous block per requested thread, runs
/// `f` on each block, and concatenates the outputs in block order.
///
/// This is the "per-worker scratch" primitive: each invocation of `f`
/// owns its whole block, so it can build local state once (rankers,
/// reusable buffers) and stream through its range. Output order — and
/// therefore the merged result for pure `f` — matches the serial
/// `f(0..n)` evaluation exactly.
///
/// The first block runs on the calling thread, every other block on a
/// scoped thread of its own. A panic in any block is re-raised here
/// once every block has finished.
pub fn par_blocks<R: Send>(par: Parallelism, n: usize, f: impl Fn(Range<usize>) -> Vec<R> + Sync) -> Vec<R> {
    if par.is_serial() || n < 2 {
        return f(0..n);
    }
    let mut blocks = block_ranges(n, par.get()).into_iter();
    let first = blocks.next().expect("n >= 2 gives at least one block");
    let f = &f;
    std::thread::scope(|s| {
        let rest: Vec<_> = blocks.map(|range| s.spawn(move || f(range))).collect();
        let mut out = f(first);
        for handle in rest {
            match handle.join() {
                Ok(block) => out.extend(block),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn block_ranges_cover_the_input_in_order() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for blocks in [1usize, 2, 3, 5, 8] {
                let ranges = block_ranges(n, blocks);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "n={n} blocks={blocks}");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} blocks={blocks}");
                assert!(ranges.len() <= blocks.max(1));
            }
        }
    }

    #[test]
    fn par_map_matches_serial_at_every_thread_count() {
        // Empty, single-element and shorter-than-thread-count inputs
        // ride along with the long one.
        for n in [0u64, 1, 3, 257] {
            let items: Vec<u64> = (0..n).collect();
            let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            for t in [1usize, 2, 3, 5, 16] {
                let got = par_map(Parallelism::threads(t), &items, |x| x * 3 + 1);
                assert_eq!(got, serial, "n={n} threads={t}");
            }
        }
    }

    #[test]
    fn par_blocks_concatenates_in_input_order() {
        for t in [1usize, 2, 5] {
            let got = par_blocks(Parallelism::threads(t), 100, |range| range.collect());
            let want: Vec<usize> = (0..100).collect();
            assert_eq!(got, want, "threads={t}");
        }
    }

    #[test]
    fn parallelism_clamps_and_reports() {
        assert!(Parallelism::threads(0).is_serial());
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::threads(4).get(), 4);
        assert!(!Parallelism::threads(4).is_serial());
        assert!(Parallelism::auto().get() >= 1);
    }

    #[test]
    fn a_block_panic_reraises_after_every_other_block_finishes() {
        // Every other block finishes only after block 1 has started to
        // panic, so a caller that re-raised early would count fewer.
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_blocks(Parallelism::threads(11), 11, |range| {
                if range.start == 1 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("boom");
                }
                while !panicking.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
                vec![range.start]
            })
        }));
        assert!(result.is_err(), "the block's panic must reach the caller");
        assert_eq!(finished.load(Ordering::SeqCst), 10, "every other block ran to completion first");
    }

    #[test]
    fn nested_par_blocks_return_the_serial_result() {
        let got = par_blocks(Parallelism::threads(4), 8, |outer| {
            outer
                .flat_map(|i| par_map(Parallelism::threads(3), &[0usize, 1, 2, 3, 4], move |j| i * 10 + j))
                .collect()
        });
        let want: Vec<usize> = (0..8).flat_map(|i| (0..5).map(move |j| i * 10 + j)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn the_first_block_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_blocks(Parallelism::threads(3), 3, |_| vec![std::thread::current().id()]);
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|id| *id != caller), "other blocks run on spawned threads");
    }

    #[test]
    fn more_blocks_than_cores_all_run_in_order() {
        let got = par_blocks(Parallelism::threads(16), 16, |range| range.map(|i| i * i).collect());
        let want: Vec<usize> = (0..16).map(|i| i * i).collect();
        assert_eq!(got, want);
    }
}
