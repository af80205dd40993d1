//! Seeded load shapes: the open-loop Poisson schedule, the rule
//! load-outs, the run clock and the pacing wait.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mw_core::{Predicate, Rule};
use mw_geometry::{Point, Rect};
use mw_model::SimDuration;
use mw_sensors::MobileObjectId;
use mw_sim::zipf::{sample_zipf, zipf_cdf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Skew of every popularity distribution in the benchmark.
pub const ZIPF_S: f64 = 1.1;

/// Seed of the rule load-outs. Which rules are programmed is part of a
/// workload's definition, like its floor plan and its sensors: `--seed`
/// decides who walks where, what the sensors report and when readings are
/// due. Drawn from `--seed`, the place of the one window a fifth of the
/// rules watch moved `office_trigger`'s in-process cost, and with it every
/// metric, by more between seeds than any change is allowed to.
pub const RULES_SEED: u64 = 0x72;

/// The run's single clock: every timestamp of every thread is
/// nanoseconds since its creation.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps most of the way to `due_ns`, then spins: `sleep` alone
    /// overshoots by tens of microseconds, which an open-loop schedule
    /// would report as generator lag.
    pub fn wait_until(&self, due_ns: u64) {
        const SPIN_NS: u64 = 200_000;
        loop {
            let now = self.ns();
            if now >= due_ns {
                return;
            }
            let left = due_ns - now;
            if left > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Keeps every other CPU out of its idle state while something is timed.
///
/// On a virtualised host, waking a thread onto a halted vCPU costs ≈ 4 µs
/// or ≈ 45 µs depending on whether the hypervisor is polling for it, and
/// which of the two flips within minutes with the neighbours' load. An
/// RPC round trip is two such wake-ups and a bridged notification four,
/// so on an otherwise idle machine that mood decides `query_mix`'s median
/// tenfold and the open loops' by a tenth. One spinning thread per CPU
/// but one leaves nothing halted to wake; a middleware host is not idle
/// either. The timed threads sleep often and so preempt the spinners.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let spinners = (1..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; there is nothing to report.
            let _ = spinner.join();
        }
    }
}

/// Cumulative send offsets (ns from the section start) of `n` operations
/// arriving as a Poisson process of `rate_per_s`.
pub fn poisson_offsets(seed: u64, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            at += -(1.0 - u).ln() / rate_per_s;
            (at * 1e9) as u64
        })
        .collect()
}

/// `office_trigger`'s rules: `n_rules` drawn Zipf over 100 distinct
/// predicates — 70 `in_region`, 20 of them again under `for_at_least`,
/// 10 `co_located` — on windows covering a quarter to all of a random
/// room, so that every window is walked through.
/// Each rule watches one person ("tell me when Alice enters 3105"): a
/// popular window then fires a handful of notifications per entry, not
/// one per rule on it, and what the bridge carries depends on how many
/// people walk, not on where the seed put the popular window.
pub fn office_rules(
    seed: u64,
    rooms: &[Rect],
    people: &[MobileObjectId],
    n_rules: usize,
) -> Vec<Rule> {
    const DISTINCT: usize = 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let window = |rng: &mut StdRng| {
        let room = rooms[rng.gen_range(0..rooms.len())];
        let w = room.width() * rng.gen_range(0.5..=1.0);
        let h = room.height() * rng.gen_range(0.5..=1.0);
        let x = room.min().x + rng.gen_range(0.0..=room.width() - w);
        let y = room.min().y + rng.gen_range(0.0..=room.height() - h);
        Rect::new(Point::new(x, y), Point::new(x + w, y + h))
    };
    let mut predicates: Vec<Predicate> = (0..DISTINCT)
        .map(|k| match k % 10 {
            0..=6 => Predicate::in_region(window(&mut rng), 0.5),
            7 | 8 => Predicate::in_region(window(&mut rng), 0.5)
                .for_at_least(SimDuration::from_secs(rng.gen_range(2.0..20.0))),
            _ => Predicate::co_located(people[rng.gen_range(0..people.len())].clone(), 3),
        })
        .collect();
    // Which kind is popular must depend on the seed, not on the order
    // the kinds were made in.
    for i in (1..predicates.len()).rev() {
        predicates.swap(i, rng.gen_range(0..=i));
    }
    let cdf = zipf_cdf(DISTINCT, ZIPF_S);
    (0..n_rules)
        .map(|_| {
            Rule::when(predicates[sample_zipf(&cdf, &mut rng)].clone())
                .object(people[rng.gen_range(0..people.len())].clone())
                .build()
                .expect("generated predicates are valid")
        })
        .collect()
}

/// Look-alike `in_region(room, 0.3)` rules drawn Zipf over `rooms` taken
/// in a scattered order. The generator fills rooms Zipf by index, and
/// rules that followed the same order would put the crowds of rules on
/// the crowds of people (fan-out in the hundreds, not ≈ 8); a random
/// order would make the fan-out a matter of which crowds the seed happened
/// to put together. Rank `k` goes to room `(rooms/2 + k·stride) mod
/// rooms`, the stride coprime to `rooms` and near its golden section.
/// Returns the room index of each rule, in registration order.
pub fn zipf_room_rules(seed: u64, rooms: usize, n_rules: usize) -> Vec<usize> {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = (rooms as f64 * 0.618) as usize | 1;
    while gcd(stride, rooms) != 1 {
        stride += 2;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let cdf = zipf_cdf(rooms, ZIPF_S);
    (0..n_rules)
        .map(|_| (rooms / 2 + sample_zipf(&cdf, &mut rng) * stride) % rooms)
        .collect()
}

/// `per_room` rules on every room.
pub fn even_room_rules(rooms: usize, per_room: usize) -> Vec<usize> {
    (0..rooms)
        .flat_map(|r| std::iter::repeat_n(r, per_room))
        .collect()
}

/// The rule watching one room.
pub fn room_rule(rect: Rect) -> Rule {
    Rule::when(Predicate::in_region(rect, 0.3))
        .build()
        .expect("room rects are valid predicates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seed_deterministic_and_on_rate() {
        let a = poisson_offsets(7, 2_000.0, 20_000);
        assert_eq!(a, poisson_offsets(7, 2_000.0, 20_000));
        assert_ne!(a, poisson_offsets(8, 2_000.0, 20_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        // 20 000 arrivals at 2 000/s span 10 s, within a few percent.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((span_s - 10.0).abs() < 0.5, "span {span_s}");
    }

    #[test]
    fn rule_loadouts_are_seed_deterministic() {
        let rooms = [
            Rect::new(Point::new(330.0, 0.0), Point::new(350.0, 30.0)),
            Rect::new(Point::new(310.0, 30.0), Point::new(500.0, 50.0)),
        ];
        let people: Vec<MobileObjectId> = (0..4)
            .map(|i| MobileObjectId::new(format!("person-{i}")))
            .collect();
        let a = office_rules(3, &rooms, &people, 1_000);
        assert_eq!(a.len(), 1_000);
        assert_eq!(a, office_rules(3, &rooms, &people, 1_000));
        assert_ne!(a, office_rules(4, &rooms, &people, 1_000));
        let mut distinct: Vec<String> = a.iter().map(|r| format!("{:?}", r.predicate)).collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() <= 100, "{} predicates", distinct.len());
        assert!(distinct.len() >= 50, "{} predicates", distinct.len());

        let rooms = zipf_room_rules(5, 576, 5_000);
        assert_eq!(rooms, zipf_room_rules(5, 576, 5_000));
        assert!(rooms.iter().all(|&r| r < 576));
        let mut watched = rooms.clone();
        watched.sort_unstable();
        watched.dedup();
        assert!(
            watched.len() > 400,
            "the scatter reaches most rooms: {}",
            watched.len()
        );
        assert_eq!(even_room_rules(3, 2), vec![0, 0, 1, 1, 2, 2]);
    }
}
