//! The four workloads: their worlds, services, rules and input feeds.
//! Everything a service sees is generated here from the seed.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mw_bus::remote::{
    remote_subscribe_with, RemoteSubscription, RemoteTopicServer, SubscribeOptions,
};
use mw_bus::{Broker, RpcClient};
use mw_core::{
    LocationRequest, LocationResponse, LocationService, Notification, SharedNotification,
    WorldModel, LOCATION_SERVICE_NAME, NOTIFICATION_TOPIC,
};
use mw_geometry::{Point, Rect};
use mw_model::{SimDuration, SimTime};
use mw_obs::MetricsRegistry;
use mw_sensors::{AdapterOutput, HealthConfig, MobileObjectId, SensorSupervisor};
use mw_sim::building::paper_floor;
use mw_sim::{City, CityConfig, Deployment, DeploymentConfig, Person};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{even_room_rules, office_rules, room_rule, zipf_room_rules, RULES_SEED, ZIPF_S};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfficeTrigger,
    CityBatch,
    RemoteFanout,
    QueryMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfficeTrigger,
        Workload::CityBatch,
        Workload::RemoteFanout,
        Workload::QueryMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfficeTrigger => "office_trigger",
            Workload::CityBatch => "city_batch",
            Workload::RemoteFanout => "remote_fanout",
            Workload::QueryMix => "query_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop send rate in ingests per second, for the workloads that
    /// have one.
    pub fn rate_per_s(self) -> Option<f64> {
        match self {
            Workload::OfficeTrigger => Some(2_000.0),
            Workload::RemoteFanout => Some(4_000.0),
            Workload::CityBatch | Workload::QueryMix => None,
        }
    }

    /// Whether notifications leave through the TCP bridge.
    pub fn bridged(self) -> bool {
        self.rate_per_s().is_some()
    }

    /// Seed of this workload's generators, so that no two workloads of
    /// one run share a random stream.
    fn salt(self, seed: u64) -> u64 {
        let k = match self {
            Workload::OfficeTrigger => 1,
            Workload::CityBatch => 2,
            Workload::RemoteFanout => 3,
            Workload::QueryMix => 4,
        };
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)
    }
}

/// One ingest call's worth of input.
#[derive(Debug, Clone)]
pub struct Step {
    pub outputs: Vec<AdapterOutput>,
    pub now: SimTime,
    /// False for the short remainder batch of a city tick, which is
    /// ingested and checked but kept out of the batch percentiles.
    pub full: bool,
}

impl Step {
    pub fn readings(&self) -> usize {
        self.outputs.iter().map(|o| o.readings.len()).sum()
    }
}

/// How a city tick's moves are cut into ingest calls.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// One move per call, each with its own `now`.
    Single,
    /// Calls of exactly this many moves, then the remainder.
    Batches(usize),
    /// The whole tick in one call.
    Tick,
}

#[derive(Debug, Clone, Copy)]
enum Tick {
    Rush,
    Diurnal(f64),
}

/// Sim-seconds between two distinct `now`s inside one tick.
const NOW_STEP: f64 = 1e-6;

pub struct CityFeed {
    city: City,
    cycle: &'static [Tick],
    churn: f64,
    cut: Cut,
    tick: usize,
    tick_now: f64,
    served: usize,
    pending: VecDeque<AdapterOutput>,
}

impl CityFeed {
    fn refill(&mut self) {
        while self.pending.is_empty() {
            self.tick_now = 10.0 + self.tick as f64;
            let now = SimTime::from_secs(self.tick_now);
            let moves = match self.cycle[self.tick % self.cycle.len()] {
                Tick::Rush => self.city.rush_hour_tick(now),
                Tick::Diurnal(hour) => self.city.diurnal_tick(hour, self.churn, now),
            };
            self.tick += 1;
            self.served = 0;
            self.pending = moves.into();
        }
    }

    fn next_step(&mut self) -> Step {
        self.refill();
        let take = match self.cut {
            Cut::Single => 1,
            Cut::Batches(n) => n.min(self.pending.len()),
            Cut::Tick => self.pending.len(),
        };
        let now = match self.cut {
            Cut::Single => self.tick_now + self.served as f64 * NOW_STEP,
            Cut::Batches(_) | Cut::Tick => self.tick_now,
        };
        self.served += take;
        Step {
            outputs: self.pending.drain(..take).collect(),
            now: SimTime::from_secs(now),
            full: !matches!(self.cut, Cut::Batches(n) if take < n),
        }
    }
}

/// The paper's floor with walking people under every sensor technology.
pub struct OfficeFeed {
    world: WorldModel,
    rooms: Vec<(String, Rect)>,
    people: Vec<Person>,
    deployment: Deployment,
    rng: StdRng,
    clock: f64,
    served: usize,
    pending: VecDeque<AdapterOutput>,
}

/// Sim-seconds per office tick: people step, then every due sensor polls.
const OFFICE_TICK: f64 = 0.5;

impl OfficeFeed {
    fn next_step(&mut self) -> Step {
        while self.pending.is_empty() {
            self.clock += OFFICE_TICK;
            let dt = SimDuration::from_secs(OFFICE_TICK);
            for person in &mut self.people {
                person.step(dt, &self.world, &self.rooms, &mut self.rng);
            }
            let now = SimTime::from_secs(self.clock);
            self.pending = self
                .deployment
                .poll(&self.people, now, &mut self.rng)
                .into();
            self.served = 0;
        }
        let now = self.clock + self.served as f64 * NOW_STEP;
        self.served += 1;
        Step {
            outputs: vec![self.pending.pop_front().expect("refilled above")],
            now: SimTime::from_secs(now),
            full: true,
        }
    }
}

pub enum Feed {
    Office(Box<OfficeFeed>),
    City(Box<CityFeed>),
}

impl Feed {
    pub fn next_step(&mut self) -> Step {
        match self {
            Feed::Office(f) => f.next_step(),
            Feed::City(f) => f.next_step(),
        }
    }
}

/// Which service a set-up builds: the workload's own, or one of the twins
/// the traced run differences against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload's constructor and rules.
    Main,
    /// The workload's constructor, no rules.
    NoRules,
    /// `new_with_obs` and the rules.
    Obs,
    /// Bare `new` and the rules.
    Bare,
}

pub struct Bridge {
    pub server: RemoteTopicServer,
    /// Taken by the receiver thread for the timed section.
    pub inbox: Option<RemoteSubscription<Notification>>,
}

pub struct Rpc {
    pub client: RpcClient<LocationRequest, LocationResponse>,
    server: std::thread::JoinHandle<()>,
}

/// A workload, set up and ready for its first timed operation.
pub struct System {
    pub workload: Workload,
    pub service: Arc<LocationService>,
    pub broker: Broker,
    pub registry: MetricsRegistry,
    pub bridge: Option<Bridge>,
    pub rpc: Option<Rpc>,
    pub feed: Feed,
    /// Walkable rooms as `(glob, rect)`.
    pub rooms: Vec<(String, Rect)>,
    pub people: Vec<MobileObjectId>,
    /// Rules watching each room, by room index; empty on the office floor,
    /// whose rules watch windows, not rooms.
    pub rules_on_room: Vec<u32>,
    /// Where presence seeding put each person, as a room index; empty on
    /// the office floor.
    pub placed: Vec<(MobileObjectId, usize)>,
    pub universe: Rect,
    pub rules: usize,
    pub rule_register_ns: u64,
}

impl System {
    /// Stops the threads the set-up started and waits for the RPC server.
    pub fn teardown(mut self) {
        if let Some(bridge) = self.bridge.take() {
            bridge.server.shutdown();
        }
        if let Some(rpc) = self.rpc.take() {
            rpc.stop(&self.broker);
        }
    }
}

/// Index of the room whose rect is exactly `rect`, keyed by [`rect_key`].
pub fn room_index(rooms: &[(String, Rect)]) -> HashMap<[u64; 4], usize> {
    rooms
        .iter()
        .enumerate()
        .map(|(i, (_, r))| (rect_key(r), i))
        .collect()
}

pub fn rect_key(r: &Rect) -> [u64; 4] {
    [
        r.min().x.to_bits(),
        r.min().y.to_bits(),
        r.max().x.to_bits(),
        r.max().y.to_bits(),
    ]
}

/// Sizes divided by `div` (10 under `--smoke`), never below `floor`.
fn scaled(n: usize, div: usize, floor: usize) -> usize {
    (n / div).max(floor)
}

/// Builds `workload` from `seed`: world, service, rules, presence,
/// and — with `connect` — the bridge or RPC endpoint the workload uses.
pub fn setup(workload: Workload, seed: u64, div: usize, variant: Variant, connect: bool) -> System {
    let seed = workload.salt(seed);
    let mut system = match workload {
        Workload::OfficeTrigger => office(seed, div, variant),
        Workload::CityBatch => city(
            workload,
            CityConfig {
                buildings: scaled(16, div, 2),
                floors: 3,
                rooms_per_floor: 12,
                population: scaled(20_000, div, 100),
                zipf_exponent: ZIPF_S,
                seed,
            },
            variant,
            &[
                Tick::Rush,
                Tick::Diurnal(12.0),
                Tick::Diurnal(19.0),
                Tick::Diurnal(22.0),
            ],
            0.3,
            Cut::Batches(scaled(1_000, div, 100)),
            |rooms| zipf_room_rules(RULES_SEED, rooms, scaled(5_000, div, 100)),
        ),
        Workload::RemoteFanout => city(
            workload,
            CityConfig {
                buildings: 4,
                floors: 3,
                rooms_per_floor: 12,
                population: scaled(2_000, div, 100),
                zipf_exponent: ZIPF_S,
                seed,
            },
            variant,
            &[
                Tick::Rush,
                Tick::Diurnal(12.0),
                Tick::Diurnal(19.0),
                Tick::Diurnal(22.0),
            ],
            0.3,
            Cut::Single,
            |rooms| even_room_rules(rooms, 1),
        ),
        Workload::QueryMix => city(
            workload,
            CityConfig {
                buildings: scaled(8, div, 2),
                floors: 3,
                rooms_per_floor: 12,
                population: scaled(5_000, div, 100),
                zipf_exponent: ZIPF_S,
                seed,
            },
            variant,
            &[
                Tick::Diurnal(10.0),
                Tick::Diurnal(14.0),
                Tick::Diurnal(19.0),
                Tick::Diurnal(22.0),
            ],
            0.01,
            Cut::Tick,
            |rooms| even_room_rules(rooms, 2),
        ),
    };
    if connect {
        if workload.bridged() {
            let topic = system
                .broker
                .topic::<SharedNotification>(NOTIFICATION_TOPIC);
            let server = RemoteTopicServer::bind("127.0.0.1:0", topic).expect("bind the bridge");
            let inbox = remote_subscribe_with::<Notification>(
                server.local_addr(),
                SubscribeOptions::default(),
            )
            .expect("subscribe over the bridge");
            system.bridge = Some(Bridge {
                server,
                inbox: Some(inbox),
            });
        }
        if workload == Workload::QueryMix {
            system.rpc = Some(serve_rpc(&system.service, &system.broker));
        }
    }
    system
}

/// Registers the service's RPC endpoint and looks its client up.
pub fn serve_rpc(service: &Arc<LocationService>, broker: &Broker) -> Rpc {
    let server = service.serve_on(broker).expect("register the RPC endpoint");
    let client = broker
        .lookup::<LocationRequest, LocationResponse>(LOCATION_SERVICE_NAME)
        .expect("look the RPC endpoint up");
    Rpc { client, server }
}

impl Rpc {
    /// Unregisters the endpoint and waits for its server thread.
    pub fn stop(self, broker: &Broker) {
        broker.unregister_service::<LocationRequest, LocationResponse>(LOCATION_SERVICE_NAME);
        drop(self.client);
        self.server.join().expect("RPC server thread panicked");
    }
}

fn register(service: &LocationService, rules: Vec<mw_core::Rule>) -> (usize, u64) {
    let n = rules.len();
    let start = Instant::now();
    for rule in rules {
        let _ = service.subscribe_rule(rule);
    }
    (n, start.elapsed().as_nanos() as u64)
}

fn office(seed: u64, div: usize, variant: Variant) -> System {
    let plan = paper_floor();
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let universe = plan.universe;
    let service = match variant {
        Variant::Main | Variant::NoRules => {
            let supervisor = SensorSupervisor::new(HealthConfig::new(universe))
                .with_metrics(&registry)
                .shared();
            LocationService::new_supervised(
                plan.db.clone(),
                universe,
                &broker,
                &registry,
                supervisor,
            )
        }
        Variant::Obs => {
            LocationService::new_with_obs(plan.db.clone(), universe, &broker, &registry)
        }
        Variant::Bare => LocationService::new(plan.db.clone(), universe, &broker),
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let every_room: Vec<usize> = (0..plan.rooms.len()).collect();
    let config = DeploymentConfig {
        // Sparse polling: more walking, and so more rule edges, per reading.
        ubisense_period: 2.0,
        ubisense_rooms: every_room.clone(),
        // Two base stations per room, so that the fused evidence is ≥ 3
        // rects for most objects without a denser (costlier) poll.
        rfid_rooms: [every_room.clone(), every_room.clone()].concat(),
        biometric_rooms: every_room.clone(),
        card_reader_rooms: every_room.clone(),
        desktop_rooms: every_room,
        ..DeploymentConfig::default()
    };
    let deployment = Deployment::install(&config, &plan.rooms);
    let people: Vec<Person> = (0..scaled(40, div, 8))
        .map(|i| {
            let (_, room) = &plan.rooms[rng.gen_range(0..plan.rooms.len())];
            let position = Point::new(
                rng.gen_range(room.min().x + 1.0..room.max().x - 1.0),
                rng.gen_range(room.min().y + 1.0..room.max().y - 1.0),
            );
            let carries = rng.gen_bool(config.carry_probability);
            Person::new(
                MobileObjectId::new(format!("person-{i}")),
                position,
                carries,
            )
        })
        .collect();
    let ids: Vec<MobileObjectId> = people.iter().map(|p| p.id.clone()).collect();

    let (rules, rule_register_ns) = if variant == Variant::NoRules {
        (0, 0)
    } else {
        let rooms: Vec<Rect> = plan.rooms.iter().map(|(_, r)| *r).collect();
        register(
            &service,
            office_rules(RULES_SEED, &rooms, &ids, scaled(1_000, div, 100)),
        )
    };

    let mut feed = OfficeFeed {
        world: WorldModel::from_database(&plan.db),
        rooms: plan.rooms.clone(),
        people,
        deployment,
        rng,
        clock: 0.0,
        served: 0,
        pending: VecDeque::new(),
    };
    // Presence: a minute of sensing, so that every object carries its
    // overlapping readings before the first timed one.
    while feed.clock < 60.0 {
        let step = feed.next_step();
        for output in step.outputs {
            drop(service.ingest(output, step.now));
        }
    }

    System {
        workload: Workload::OfficeTrigger,
        service,
        broker,
        registry,
        bridge: None,
        rpc: None,
        feed: Feed::Office(Box::new(feed)),
        rooms: plan.rooms,
        people: ids,
        rules_on_room: Vec::new(),
        placed: Vec::new(),
        universe,
        rules,
        rule_register_ns,
    }
}

#[allow(clippy::too_many_arguments)]
fn city(
    workload: Workload,
    config: CityConfig,
    variant: Variant,
    cycle: &'static [Tick],
    churn: f64,
    cut: Cut,
    rule_rooms: impl FnOnce(usize) -> Vec<usize>,
) -> System {
    let mut city = City::new(&config);
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let universe = city.plan().universe;
    let db = city.plan().db.clone();
    let service = match variant {
        Variant::Bare => LocationService::new(db, universe, &broker),
        _ => LocationService::new_with_obs(db, universe, &broker, &registry),
    };

    let rects = city.room_rects();
    let room_of = room_index(&city.plan().rooms);
    let now = SimTime::from_secs(1.0);
    let presence = city.seed_presence(now);
    let placed = presence
        .iter()
        .flat_map(|o| &o.readings)
        .map(|r| (r.object.clone(), room_of[&rect_key(&r.region)]))
        .collect();
    drop(service.ingest_batch(presence, now));

    let mut rules_on_room = vec![0u32; rects.len()];
    let (rules, rule_register_ns) = if variant == Variant::NoRules {
        (0, 0)
    } else {
        let rooms = rule_rooms(rects.len());
        for &r in &rooms {
            rules_on_room[r] += 1;
        }
        register(
            &service,
            rooms.into_iter().map(|r| room_rule(rects[r])).collect(),
        )
    };

    System {
        workload,
        service,
        broker,
        registry,
        bridge: None,
        rpc: None,
        rooms: city.plan().rooms.clone(),
        people: city.people().to_vec(),
        feed: Feed::City(Box::new(CityFeed {
            city,
            cycle,
            churn,
            cut,
            tick: 0,
            tick_now: 0.0,
            served: 0,
            pending: VecDeque::new(),
        })),
        rules_on_room,
        placed,
        universe,
        rules,
        rule_register_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed gives the same inputs, another seed gives others,
    /// and no two workloads of one seed share a stream.
    #[test]
    fn feeds_are_seed_deterministic() {
        for workload in Workload::ALL {
            let steps = |seed: u64| -> Vec<Step> {
                let mut system = setup(workload, seed, 10, Variant::Bare, false);
                let steps = (0..40).map(|_| system.feed.next_step()).collect();
                system.teardown();
                steps
            };
            let outputs = |steps: &[Step]| -> Vec<(Vec<AdapterOutput>, u64)> {
                steps
                    .iter()
                    .map(|s| (s.outputs.clone(), s.now.as_secs().to_bits()))
                    .collect()
            };
            let a = outputs(&steps(11));
            assert_eq!(a, outputs(&steps(11)), "{}", workload.name());
            assert_ne!(a, outputs(&steps(12)), "{}", workload.name());
        }
        assert_ne!(Workload::CityBatch.salt(5), Workload::QueryMix.salt(5));
    }

    #[test]
    fn batches_are_cut_full_then_remainder() {
        let mut system = setup(Workload::CityBatch, 3, 10, Variant::Bare, false);
        // The rush-hour tick moves most of 2 000 people: full batches of
        // 100, then one short remainder, then the next tick's.
        let mut saw_remainder = false;
        for _ in 0..60 {
            let step = system.feed.next_step();
            assert_eq!(step.full, step.outputs.len() == 100);
            assert!(!step.outputs.is_empty());
            saw_remainder |= !step.full;
        }
        assert!(saw_remainder);
        system.teardown();
    }
}
