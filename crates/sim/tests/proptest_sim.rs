//! Property tests for the discrete-event engine: global time ordering and
//! FIFO tie-breaking under arbitrary schedules.

use p2p_sim::{Context, EventQueue, Simulation, World};
use p2p_types::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Offsets past the last popped time a push may take: ties at zero, and
/// spans that reach the queue's low, middle and high radix buckets.
const SHIFTS: [u32; 4] = [0, 3, 17, 40];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Popping the queue yields events in (time, insertion) order no matter
    /// the push order.
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0u64..10_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((at, idx)) = q.pop() {
            count += 1;
            if let Some((lt, lidx)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(idx > lidx, "FIFO among equal times");
                }
            }
            prop_assert_eq!(SimTime::from_micros(times[idx]), at);
            last = Some((at, idx));
        }
        prop_assert_eq!(count, times.len());
    }

    /// Interleaved pushes and pops, every push at or after the last popped
    /// time and most of them tied with another, pop exactly as a binary
    /// heap ordered by `(time, insertion sequence)` pops them.
    #[test]
    fn queue_matches_a_binary_heap_oracle(
        ops in prop::collection::vec((0u8..3, 0u64..4, 0usize..4), 0..400),
    ) {
        let mut q = EventQueue::new();
        let mut oracle = BinaryHeap::new();
        let mut last = 0;
        for (seq, &(kind, delta, shift)) in ops.iter().enumerate() {
            if kind == 0 {
                let got = q.pop().map(|(at, s)| (at.as_micros(), s));
                let want = oracle.pop().map(|Reverse(entry)| entry);
                prop_assert_eq!(got, want);
                if let Some((at, _)) = got {
                    last = at;
                }
            } else {
                let at = last + (delta << SHIFTS[shift]);
                q.push(SimTime::from_micros(at), seq);
                oracle.push(Reverse((at, seq)));
            }
            prop_assert_eq!(q.len(), oracle.len());
            let next = oracle.peek().map(|Reverse((at, _))| SimTime::from_micros(*at));
            prop_assert_eq!(q.next_time(), next);
        }
        while let Some(Reverse(want)) = oracle.pop() {
            prop_assert_eq!(q.pop().map(|(at, s)| (at.as_micros(), s)), Some(want));
        }
        prop_assert!(q.pop().is_none());
    }

    /// A world that re-schedules events never observes time running
    /// backwards, and `run_until` never processes events at/after the
    /// horizon.
    #[test]
    fn simulation_time_is_monotone(
        initial in prop::collection::vec((0u64..5_000, 0u64..2_000), 1..40),
        horizon in 1_000u64..8_000,
    ) {
        struct W {
            observed: Vec<u64>,
        }
        impl World for W {
            type Event = u64; // re-schedule delay; 0 = leaf event
            fn handle(&mut self, ctx: &mut Context<'_, u64>, delay: u64) {
                self.observed.push(ctx.now().as_micros());
                if delay > 0 {
                    ctx.schedule_in(SimDuration::from_micros(delay), delay / 2);
                }
            }
        }
        let mut sim = Simulation::new(W { observed: vec![] }).with_max_events(10_000);
        for &(at, delay) in &initial {
            sim.schedule_at(SimTime::from_micros(at), delay);
        }
        sim.run_until(SimTime::from_micros(horizon));
        let obs = &sim.world().observed;
        for w in obs.windows(2) {
            prop_assert!(w[0] <= w[1], "time went backwards");
        }
        for &t in obs {
            prop_assert!(t < horizon, "event at/after horizon processed");
        }
    }

    /// Running to completion processes exactly the closure of scheduled
    /// events.
    #[test]
    fn run_to_completion_drains_queue(times in prop::collection::vec(0u64..1_000, 0..50)) {
        struct Count(u64);
        impl World for Count {
            type Event = ();
            fn handle(&mut self, _: &mut Context<'_, ()>, (): ()) {
                self.0 += 1;
            }
        }
        let mut sim = Simulation::new(Count(0));
        for &t in &times {
            sim.schedule_at(SimTime::from_micros(t), ());
        }
        let stats = sim.run_to_completion();
        prop_assert_eq!(stats.events_processed, times.len() as u64);
        prop_assert_eq!(sim.world().0, times.len() as u64);
        prop_assert_eq!(sim.pending(), 0);
    }
}

#[test]
#[should_panic(expected = "cannot schedule into the past")]
fn pushing_before_the_last_popped_time_panics() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_micros(10), ());
    q.pop();
    q.push(SimTime::from_micros(9), ());
}
