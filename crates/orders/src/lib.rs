//! Streaming partial-order engines, generic over the clock data
//! structure.
//!
//! This crate implements the three vector-clock algorithms the paper
//! studies, each as a single-pass engine parameterized by
//! `C: LogicalClock` — instantiate with [`TreeClock`](tc_core::TreeClock)
//! or [`VectorClock`](tc_core::VectorClock) to reproduce the paper's
//! drop-in-replacement comparison:
//!
//! - [`HbEngine`] — Lamport happens-before (Algorithms 1 and 3);
//! - [`ShbEngine`] — schedulable happens-before (Algorithm 4);
//! - [`MazEngine`] — the Mazurkiewicz partial order (Algorithm 5).
//!
//! Every engine tallies [`RunMetrics`]: the number of data-structure
//! entries examined/changed/moved by each operation. These drive the
//! paper's `VTWork` (the representation-independent lower bound),
//! `TCWork` and `VCWork` measurements (Figures 8 and 9) and the
//! vt-optimality property tests (Theorem 1).
//!
//! For validation, the [`dag`] module provides an explicit event graph
//! with precomputed reachability, and [`spec`] builds the three partial
//! orders directly from their definitions — an executable specification
//! the streaming engines are differentially tested against.
//!
//! # Example
//!
//! ```rust
//! use tc_core::{TreeClock, VectorClock};
//! use tc_orders::HbEngine;
//! use tc_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! b.acquire(0, "m").release(0, "m").acquire(1, "m").release(1, "m");
//! let trace = b.finish();
//!
//! // The two representations compute identical timestamps...
//! let tc = HbEngine::<TreeClock>::collect_timestamps(&trace);
//! let vc = HbEngine::<VectorClock>::collect_timestamps(&trace);
//! assert_eq!(tc, vc);
//!
//! // ...and identical VTWork (it is representation independent).
//! let m_tc = HbEngine::<TreeClock>::run(&trace);
//! let m_vc = HbEngine::<VectorClock>::run(&trace);
//! assert_eq!(m_tc.vt_work(), m_vc.vt_work());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dag;
pub mod hb;
pub mod maz;
pub mod metrics;
pub mod shb;
pub mod snapshot;
pub mod spec;
mod sync_core;

pub use dag::{EventDag, Reachability};
pub use hb::HbEngine;
pub use maz::MazEngine;
pub use metrics::RunMetrics;
pub use shb::ShbEngine;
pub use snapshot::{ClockValue, CoreState, EngineState, ThreadSlot, VarClocks};
pub use spec::PartialOrderKind;

// Every engine, over every clock backend, is a movable value: the
// streaming service's work-stealing core depends on being able to ship
// an engine (inside a session) to whichever worker thread is free.
// Compile-time assertion — two backends × three orders.
const _: () = {
    const fn assert_send<T: Send>() {}
    use tc_core::{TreeClock, VectorClock};
    assert_send::<HbEngine<TreeClock>>();
    assert_send::<HbEngine<VectorClock>>();
    assert_send::<ShbEngine<TreeClock>>();
    assert_send::<ShbEngine<VectorClock>>();
    assert_send::<MazEngine<TreeClock>>();
    assert_send::<MazEngine<VectorClock>>();
};

#[cfg(test)]
mod tests {
    use tc_core::{ClockPool, LogicalClock, TreeClock, VectorClock, VectorTime};
    use tc_trace::{Event, Trace, TraceBuilder};

    use crate::{EngineState, HbEngine, MazEngine, RunMetrics, ShbEngine};

    /// Runs `run` three times over one pool: the second run must take
    /// every clock from the free list and reproduce the first run's
    /// metrics, and the third must park as many clocks as the second.
    fn assert_rerun_allocates_nothing<C: LogicalClock>(
        label: &str,
        trace: &Trace,
        run: fn(&Trace, &mut ClockPool<C>) -> RunMetrics,
    ) {
        let mut pool = ClockPool::<C>::new();
        let first = run(trace, &mut pool);
        let fresh = pool.fresh();
        assert!(fresh > 0, "{label}: the first run must allocate clocks");
        let second = run(trace, &mut pool);
        assert_eq!(
            pool.fresh(),
            fresh,
            "{label}: steady state must allocate no new clocks"
        );
        assert!(pool.recycled() >= fresh, "{label}: {pool:?}");
        assert_eq!(first, second, "{label}: pooling must not change any metric");
        let parked = pool.free_len();
        run(trace, &mut pool);
        assert_eq!(
            pool.free_len(),
            parked,
            "{label}: reruns must not grow the free list"
        );
    }

    fn assert_every_order_reruns_allocation_free<C: LogicalClock>(backend: &str, trace: &Trace) {
        assert_rerun_allocates_nothing::<C>(
            &format!("HB/{backend}"),
            trace,
            HbEngine::<C>::run_pooled,
        );
        assert_rerun_allocates_nothing::<C>(
            &format!("SHB/{backend}"),
            trace,
            ShbEngine::<C>::run_pooled,
        );
        assert_rerun_allocates_nothing::<C>(
            &format!("MAZ/{backend}"),
            trace,
            MazEngine::<C>::run_pooled,
        );
    }

    /// `threads` threads taking turns: each writes a variable its
    /// successor reads, then locks and unlocks one of `locks` locks.
    fn rerun_trace(threads: u32, locks: u32, steps: u32) -> Trace {
        let mut b = TraceBuilder::new();
        for i in 0..steps {
            let t = i % threads;
            b.write_id(t, i % 3);
            b.read_id((t + 1) % threads, i % 3);
            b.acquire_id(t, i % locks);
            b.release_id(t, i % locks);
        }
        b.finish()
    }

    #[test]
    fn pooled_reruns_are_allocation_free() {
        // 4 threads keep every clock inline; at 80 the thread clocks
        // share their shapes with the lock and last-write clocks they
        // publish into, and first publications may clone them.
        for trace in [rerun_trace(4, 1, 40), rerun_trace(80, 24, 400)] {
            assert_every_order_reruns_allocation_free::<TreeClock>("tree", &trace);
            assert_every_order_reruns_allocation_free::<VectorClock>("vector", &trace);
        }
    }

    /// The engine surface a checkpointed run uses.
    trait Checkpointed: Sized {
        fn start(trace: &Trace) -> Self;
        fn step(&mut self, e: &Event) -> VectorTime;
        fn evict(&mut self) -> usize;
        fn export(&self) -> EngineState;
        fn resume(state: &EngineState) -> Self;
    }

    macro_rules! checkpointed {
        ($($engine:ident),*) => {$(
            impl<C: LogicalClock> Checkpointed for $engine<C> {
                fn start(trace: &Trace) -> Self {
                    $engine::new(trace)
                }
                fn step(&mut self, e: &Event) -> VectorTime {
                    self.process(e);
                    self.timestamp_of(e.tid)
                }
                fn evict(&mut self) -> usize {
                    self.evict_dominated()
                }
                fn export(&self) -> EngineState {
                    self.export_state()
                }
                fn resume(state: &EngineState) -> Self {
                    $engine::from_state(state, ClockPool::new())
                }
            }
        )*};
    }
    checkpointed!(HbEngine, ShbEngine, MazEngine);

    /// Lock ids 0 and 50,000 and variable ids 0 and 30,000, each high id
    /// used first. Returns the trace and the event count after which
    /// lock 50,000 and both last writes are dominated by every thread
    /// (lock 0 is not).
    fn sparse_ids_trace() -> (Trace, usize) {
        let (l0, l1, x0, x1) = (0, 50_000, 0, 30_000);
        let mut b = TraceBuilder::new();
        b.fork(0, 1).fork(0, 2);
        b.acquire_id(1, l1).write_id(1, x1).release_id(1, l1);
        b.acquire_id(2, l1)
            .read_id(2, x1)
            .write_id(2, x0)
            .release_id(2, l1);
        b.acquire_id(2, l0).release_id(2, l0);
        b.acquire_id(0, l0).release_id(0, l0);
        b.acquire_id(1, l0).release_id(1, l0);
        let at = b.len();
        // Lock 50,000 and the last writes materialize again.
        b.acquire_id(1, l1).write_id(1, x0).release_id(1, l1);
        b.acquire_id(0, l1)
            .read_id(0, x0)
            .write_id(0, x1)
            .release_id(0, l1);
        b.acquire_id(2, l0)
            .read_id(2, x1)
            .release_id(2, l0)
            .write_id(2, x1);
        b.read_id(1, x1).write_id(1, x0);
        (b.finish(), at)
    }

    /// Runs `trace` on `A`, evicting after event `at`; a copy of the
    /// state exported there finishes the run on `B`. Both runs must
    /// produce the timestamps of a run that never evicts, and the same
    /// final state.
    fn assert_checkpoint_survives_eviction<A: Checkpointed, B: Checkpointed>(label: &str) {
        let (trace, at) = sparse_ids_trace();
        let mut plain = A::start(&trace);
        let expected: Vec<_> = trace.iter().map(|e| plain.step(e)).collect();

        let (before, after) = trace.events().split_at(at);
        let mut a = A::start(&trace);
        let mut stamps: Vec<_> = before.iter().map(|e| a.step(e)).collect();
        assert!(a.evict() >= 1, "{label}: lock 50,000 is dominated");
        let mid = a.export();
        assert_eq!(mid.core.locks.len(), 50_001, "{label}");
        assert!(mid.core.locks[50_000].is_none(), "{label}: evicted");
        assert!(mid.core.locks[0].is_some(), "{label}: not dominated");
        if !mid.vars.is_empty() {
            assert_eq!(mid.vars.len(), 30_001, "{label}");
            assert!(mid.vars.iter().all(|v| v.last_write.is_none()), "{label}");
        }

        let mut b = B::resume(&mid);
        let mut resumed = stamps.clone();
        for e in after {
            stamps.push(a.step(e));
            resumed.push(b.step(e));
        }
        assert_eq!(stamps, expected, "{label}: eviction changed a timestamp");
        assert_eq!(resumed, expected, "{label}: the restored run diverged");
        let end = a.export();
        assert!(end.core.locks[50_000].is_some(), "{label}");
        assert_eq!(b.export(), end, "{label}: the final state differs");
    }

    #[test]
    fn checkpoints_of_sparse_evicted_tables_do_not_depend_on_first_use_order() {
        assert_checkpoint_survives_eviction::<HbEngine<TreeClock>, HbEngine<VectorClock>>("HB");
        assert_checkpoint_survives_eviction::<ShbEngine<VectorClock>, ShbEngine<TreeClock>>("SHB");
        assert_checkpoint_survives_eviction::<MazEngine<TreeClock>, MazEngine<VectorClock>>("MAZ");
    }
}
