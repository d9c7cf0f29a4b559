//! Deterministic discrete-event simulation engine.
//!
//! A minimal, reusable DES core: a time-ordered event queue with stable
//! FIFO tie-breaking (a radix heap over chains in a [`ChainSlab`]), a
//! virtual clock, and a [`World`] trait the domain logic implements. The
//! streaming emulator uses it to run the paper's in-slot distributed
//! auctions with realistic message latencies, replacing the authors'
//! blade-server emulator with a reproducible substrate (see DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use p2p_sim::{Simulation, World, Context};
//! use p2p_types::{SimTime, SimDuration};
//!
//! struct Counter { fired: u32 }
//! impl World for Counter {
//!     type Event = &'static str;
//!     fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, ev: Self::Event) {
//!         self.fired += 1;
//!         if ev == "tick" && self.fired < 3 {
//!             ctx.schedule_in(SimDuration::from_secs(1), "tick");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule_at(SimTime::ZERO, "tick");
//! let stats = sim.run_to_completion();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(stats.events_processed, 3);
//! assert_eq!(sim.now().as_secs_f64(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod queue;
pub mod rng;

pub use arena::{ChainSlab, NIL};
pub use queue::EventQueue;
pub use rng::{derive_seed, seeded_rng};

use p2p_types::{SimDuration, SimTime};

/// Domain logic driven by the simulation: consumes events, mutates itself,
/// and schedules follow-up events through the [`Context`].
pub trait World {
    /// The event type this world understands.
    type Event;

    /// Handles one event at the context's current time.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// Scheduling handle passed to [`World::handle`].
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<'a, E> Context<'a, E> {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (determinism guard: the engine never
    /// reorders history). The queue checks it: `now` is its last pop.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Schedules an event `delay` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Requests the run loop to stop after this event completes.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Statistics from one run call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Events handled during the run.
    pub events_processed: u64,
    /// Whether the run ended because the horizon was reached (vs queue
    /// exhaustion or an explicit stop).
    pub hit_horizon: bool,
    /// Whether the world requested a stop.
    pub stopped: bool,
    /// High-water mark of the pending-event queue during the run
    /// (sampled before each pop, so it includes the event about to fire).
    pub peak_pending: usize,
}

/// The simulation driver: owns the world, the queue and the clock.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    max_events: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero.
    pub fn new(world: W) -> Self {
        Simulation { world, queue: EventQueue::new(), now: SimTime::ZERO, max_events: u64::MAX }
    }

    /// Caps the total number of events a single run call may process
    /// (guard against runaway event loops). Default: unlimited.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Preallocates queue space for `capacity` pending events (see
    /// [`EventQueue::with_capacity`]). Only meaningful before the first
    /// schedule call.
    #[must_use]
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        if self.queue.is_empty() {
            self.queue = EventQueue::with_capacity(capacity);
        }
        self
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event from outside the world (setup).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Runs until the queue empties, the world stops, or `horizon` is
    /// reached — whichever comes first. Events stamped exactly at the
    /// horizon are *not* processed; the clock is left at `horizon` if it
    /// was reached, otherwise at the last event time.
    pub fn run_until(&mut self, horizon: SimTime) -> RunStats {
        let mut stats = RunStats::default();
        let mut stop = false;
        while let Some(at) = self.queue.next_time() {
            stats.peak_pending = stats.peak_pending.max(self.queue.len());
            if at >= horizon {
                self.now = horizon;
                stats.hit_horizon = true;
                return stats;
            }
            let (at, event) = self.queue.pop().expect("peeked entry exists");
            self.now = at;
            let mut ctx = Context { now: at, queue: &mut self.queue, stop_requested: &mut stop };
            self.world.handle(&mut ctx, event);
            stats.events_processed += 1;
            if stop {
                stats.stopped = true;
                return stats;
            }
            if stats.events_processed >= self.max_events {
                return stats;
            }
        }
        stats
    }

    /// Runs until the queue is exhausted or the world stops.
    pub fn run_to_completion(&mut self) -> RunStats {
        let mut stats = RunStats::default();
        let mut stop = false;
        loop {
            stats.peak_pending = stats.peak_pending.max(self.queue.len());
            let Some((at, event)) = self.queue.pop() else { break };
            self.now = at;
            let mut ctx = Context { now: at, queue: &mut self.queue, stop_requested: &mut stop };
            self.world.handle(&mut ctx, event);
            stats.events_processed += 1;
            if stop {
                stats.stopped = true;
                return stats;
            }
            if stats.events_processed >= self.max_events {
                return stats;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        StopNow,
    }

    struct Recorder {
        seen: Vec<(f64, u32)>,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Ping(i) => {
                    self.seen.push((ctx.now().as_secs_f64(), i));
                    if i < 5 {
                        ctx.schedule_in(SimDuration::from_secs(1), Ev::Ping(i + 1));
                    }
                }
                Ev::StopNow => ctx.stop(),
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(SimTime::from_secs_f64(3.0), Ev::Ping(100));
        sim.schedule_at(SimTime::from_secs_f64(1.0), Ev::Ping(200));
        let stats = sim.run_to_completion();
        assert_eq!(stats.events_processed, 2);
        assert_eq!(sim.world().seen, vec![(1.0, 200), (3.0, 100)]);
    }

    #[test]
    fn fifo_tie_break_for_simultaneous_events() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(SimTime::from_secs_f64(1.0), Ev::Ping(10));
        sim.schedule_at(SimTime::from_secs_f64(1.0), Ev::Ping(20));
        sim.schedule_at(SimTime::from_secs_f64(1.0), Ev::Ping(30));
        // Pings self-reschedule; cap them by stopping at 1.5 s.
        sim.run_until(SimTime::from_secs_f64(1.5));
        let order: Vec<u32> = sim.world().seen.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let stats = sim.run_until(SimTime::from_secs_f64(2.5));
        assert!(stats.hit_horizon);
        // Pings at t=0,1,2 fire; t=3 is beyond the horizon.
        assert_eq!(sim.world().seen.len(), 3);
        assert_eq!(sim.now(), SimTime::from_secs_f64(2.5));
        // The pending ping at t=3 still exists.
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn stop_request_halts_loop() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.schedule_at(SimTime::ZERO, Ev::StopNow);
        sim.schedule_at(SimTime::from_secs_f64(1.0), Ev::Ping(1));
        let stats = sim.run_to_completion();
        assert!(stats.stopped);
        assert_eq!(stats.events_processed, 1);
        assert!(sim.world().seen.is_empty());
    }

    #[test]
    fn max_events_guard() {
        let mut sim = Simulation::new(Recorder { seen: vec![] }).with_max_events(2);
        sim.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let stats = sim.run_to_completion();
        assert_eq!(stats.events_processed, 2);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
                // now is 1 s; scheduling at 0 s must panic
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule_at(SimTime::from_secs_f64(1.0), ());
        sim.run_to_completion();
    }

    #[test]
    fn peak_pending_tracks_the_queue_high_water_mark() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        // Indices ≥ 5 do not self-reschedule, so the queue only drains.
        sim.schedule_at(SimTime::from_secs_f64(1.0), Ev::Ping(100));
        sim.schedule_at(SimTime::from_secs_f64(2.0), Ev::Ping(200));
        sim.schedule_at(SimTime::from_secs_f64(3.0), Ev::Ping(300));
        let stats = sim.run_to_completion();
        assert_eq!(stats.peak_pending, 3);
        assert_eq!(stats.events_processed, 3);
    }

    #[test]
    fn world_accessors() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.world_mut().seen.push((0.0, 0));
        assert_eq!(sim.into_world().seen.len(), 1);
    }
}
