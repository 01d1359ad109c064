//! Seed-driven fail-point registry.
//!
//! A fail point is a named site in the engine that can be *armed* with
//! a [`Schedule`]. Each time execution passes the site it calls
//! [`FailPoints::fire`]; the schedule decides — deterministically, as a
//! pure function of the point's hit counter and an optional seed —
//! whether the fault triggers on that hit. Disarmed registries cost one
//! relaxed atomic load per site.
//!
//! The registry also keeps a side table of *events*: counters for the
//! degradation paths that engage in response to faults or cancellation
//! ("exec.serial_fallback", "cancel.cancelled", …). Events always
//! count, armed or not, and an optional observer callback mirrors both
//! trips and events into the engine's metrics registry under
//! `fault.*`/`cancel.*` names.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// When an armed fail point triggers, as a function of its 1-based hit
/// index. All schedules are deterministic: re-running the same hit
/// sequence reproduces the same trigger sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Trigger on every hit.
    Always,
    /// Trigger on exactly the `n`-th hit (1-based), once.
    Nth(u64),
    /// Trigger on every `n`-th hit (n, 2n, 3n, …).
    EveryNth(u64),
    /// Trigger on the first `n` hits, then never again.
    FirstN(u64),
    /// Trigger pseudo-randomly on roughly one in `one_in` hits. The
    /// decision is `mix(seed, hit) % one_in == 0` — a pure function of
    /// the seed and hit index, so a given seed replays identically.
    Seeded { seed: u64, one_in: u64 },
}

impl Schedule {
    /// Does this schedule trigger on the given 1-based hit index?
    fn triggers(&self, hit: u64) -> bool {
        match *self {
            Schedule::Always => true,
            Schedule::Nth(n) => hit == n.max(1),
            Schedule::EveryNth(n) => hit.is_multiple_of(n.max(1)),
            Schedule::FirstN(n) => hit <= n,
            Schedule::Seeded { seed, one_in } => mix(seed, hit).is_multiple_of(one_in.max(1)),
        }
    }
}

/// SplitMix64 finalizer over `(seed, hit)` — a stateless hash so the
/// schedule decision for hit `k` does not depend on evaluation order.
fn mix(seed: u64, hit: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(hit.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Internal per-point state.
#[derive(Debug)]
struct Point {
    schedule: Schedule,
    hits: AtomicU64,
    trips: AtomicU64,
}

/// Frozen counters for one fail point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointStats {
    /// Times execution passed the armed site.
    pub hits: u64,
    /// Times the schedule actually triggered the fault.
    pub trips: u64,
}

/// A handle to one armed fail point, returned by [`FailPoints::arm`].
/// Cheap to clone; counters stay readable after the point is disarmed.
#[derive(Debug, Clone)]
pub struct FailPoint {
    name: String,
    point: Arc<Point>,
}

impl FailPoint {
    /// The point's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Times execution passed the site while armed.
    pub fn hits(&self) -> u64 {
        self.point.hits.load(Ordering::Relaxed)
    }

    /// Times the fault actually triggered.
    pub fn trips(&self) -> u64 {
        self.point.trips.load(Ordering::Relaxed)
    }
}

/// Observer invoked once per trip/event with the metric-style name
/// (`fault.<point>` for trips, the event name verbatim for events).
pub type Observer = Arc<dyn Fn(&str) + Send + Sync>;

/// Registry of named fail points plus degradation-event counters.
#[derive(Default)]
pub struct FailPoints {
    /// Fast gate: false ⇒ no point is armed and `fire` is one load.
    armed: AtomicBool,
    points: RwLock<BTreeMap<String, Arc<Point>>>,
    events: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    observer: RwLock<Option<Observer>>,
}

impl std::fmt::Debug for FailPoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailPoints")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("points", &self.points.read())
            .finish_non_exhaustive()
    }
}

impl FailPoints {
    /// An empty, disarmed registry.
    pub fn new() -> Self {
        FailPoints::default()
    }

    /// Arm (or re-arm) the named point with a schedule. Re-arming
    /// resets the hit/trip counters.
    pub fn arm(&self, name: &str, schedule: Schedule) -> FailPoint {
        let point = Arc::new(Point {
            schedule,
            hits: AtomicU64::new(0),
            trips: AtomicU64::new(0),
        });
        self.points
            .write()
            .insert(name.to_owned(), Arc::clone(&point));
        self.armed.store(true, Ordering::Release);
        FailPoint {
            name: name.to_owned(),
            point,
        }
    }

    /// Disarm one point; remaining points stay armed.
    pub fn disarm(&self, name: &str) {
        let mut points = self.points.write();
        points.remove(name);
        if points.is_empty() {
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Disarm every point. Event counters are kept.
    pub fn disarm_all(&self) {
        self.points.write().clear();
        self.armed.store(false, Ordering::Release);
    }

    /// Should the named site fail on this hit? The disarmed fast path
    /// is a single relaxed load.
    pub fn fire(&self, name: &str) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        let point = match self.points.read().get(name) {
            Some(p) => Arc::clone(p),
            None => return false,
        };
        let hit = point.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if !point.schedule.triggers(hit) {
            return false;
        }
        point.trips.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.observer.read().as_ref() {
            obs(&format!("fault.{name}"));
        }
        true
    }

    /// Count a degradation/cancellation event (e.g.
    /// "fault.exec.serial_fallback", "cancel.cancelled"). Events count
    /// whether or not any point is armed.
    pub fn note(&self, event: &str) {
        // The read guard must drop before any write acquisition: an
        // `if let` scrutinee temporary would otherwise still be held in
        // the `else` branch (edition-2021 scoping) and self-deadlock.
        let counter = self.events.read().get(event).cloned();
        match counter {
            Some(c) => c.fetch_add(1, Ordering::Relaxed),
            None => self
                .events
                .write()
                .entry(event.to_owned())
                .or_default()
                .fetch_add(1, Ordering::Relaxed),
        };
        if let Some(obs) = self.observer.read().as_ref() {
            obs(event);
        }
    }

    /// An event counter's value (0 when never noted).
    pub fn event(&self, event: &str) -> u64 {
        self.events
            .read()
            .get(event)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Trip count of a named point (0 when never armed).
    pub fn trips(&self, name: &str) -> u64 {
        self.points
            .read()
            .get(name)
            .map(|p| p.trips.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Frozen hit/trip counters for every armed point.
    pub fn stats(&self) -> BTreeMap<String, PointStats> {
        self.points
            .read()
            .iter()
            .map(|(name, p)| {
                (
                    name.clone(),
                    PointStats {
                        hits: p.hits.load(Ordering::Relaxed),
                        trips: p.trips.load(Ordering::Relaxed),
                    },
                )
            })
            .collect()
    }

    /// Frozen values of every event counter.
    pub fn events(&self) -> BTreeMap<String, u64> {
        self.events
            .read()
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Install a callback mirroring trips and events into an external
    /// metrics sink; replaces any previous observer.
    pub fn set_observer(&self, observer: Option<Observer>) {
        *self.observer.write() = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_registry_never_fires() {
        let f = FailPoints::new();
        assert!(!f.armed.load(Ordering::Relaxed));
        assert!(!f.fire("cache.admit"));
        assert_eq!(f.trips("cache.admit"), 0);
    }

    #[test]
    fn schedules_trigger_deterministically() {
        let f = FailPoints::new();
        let p = f.arm("x", Schedule::Nth(3));
        let fired: Vec<bool> = (0..5).map(|_| f.fire("x")).collect();
        assert_eq!(fired, [false, false, true, false, false]);
        assert_eq!(p.hits(), 5);
        assert_eq!(p.trips(), 1);

        f.arm("x", Schedule::EveryNth(2));
        let fired: Vec<bool> = (0..4).map(|_| f.fire("x")).collect();
        assert_eq!(fired, [false, true, false, true]);

        f.arm("x", Schedule::FirstN(2));
        let fired: Vec<bool> = (0..4).map(|_| f.fire("x")).collect();
        assert_eq!(fired, [true, true, false, false]);

        f.arm("x", Schedule::Always);
        assert!(f.fire("x"));
    }

    #[test]
    fn seeded_schedule_replays_identically() {
        let run = |seed: u64| -> Vec<bool> {
            let f = FailPoints::new();
            f.arm("x", Schedule::Seeded { seed, one_in: 4 });
            (0..64).map(|_| f.fire("x")).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
        let trips = run(7).iter().filter(|&&b| b).count();
        assert!((4..=32).contains(&trips), "~1/4 rate, got {trips}/64");
    }

    #[test]
    fn disarm_restores_fast_path() {
        let f = FailPoints::new();
        f.arm("a", Schedule::Always);
        f.arm("b", Schedule::Always);
        f.disarm("a");
        assert!(f.armed.load(Ordering::Relaxed), "b still armed");
        assert!(!f.fire("a"));
        assert!(f.fire("b"));
        f.disarm_all();
        assert!(!f.armed.load(Ordering::Relaxed));
        assert!(!f.fire("b"));
    }

    #[test]
    fn events_count_without_arming() {
        let f = FailPoints::new();
        f.note("cancel.cancelled");
        f.note("cancel.cancelled");
        assert_eq!(f.event("cancel.cancelled"), 2);
        assert_eq!(f.event("never"), 0);
        assert_eq!(f.events().len(), 1);
    }

    #[test]
    fn observer_sees_trips_and_events() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let f = FailPoints::new();
        let sink = Arc::clone(&seen);
        f.set_observer(Some(Arc::new(move |name: &str| {
            sink.lock().unwrap().push(name.to_owned());
        })));
        f.arm("cache.admit", Schedule::Always);
        f.fire("cache.admit");
        f.note("cancel.deadline");
        assert_eq!(
            *seen.lock().unwrap(),
            vec!["fault.cache.admit".to_owned(), "cancel.deadline".to_owned()]
        );
    }

    #[test]
    fn stats_snapshot_all_points() {
        let f = FailPoints::new();
        f.arm("a", Schedule::Always);
        f.arm("b", Schedule::Nth(10));
        f.fire("a");
        f.fire("b");
        let stats = f.stats();
        assert_eq!(stats["a"], PointStats { hits: 1, trips: 1 });
        assert_eq!(stats["b"], PointStats { hits: 1, trips: 0 });
    }
}
