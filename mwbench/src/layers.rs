//! The per-layer numbers of the traced run, all taken from outside:
//! twin services fed the same inputs, the workload's own inputs replayed
//! through each crate's public functions, and the registry's counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mw_bus::remote::{remote_subscribe_with, RemoteTopicServer, SubscribeOptions};
use mw_bus::transport::{encode_frame, read_frame, Frame};
use mw_bus::Broker;
use mw_core::{LocationQuery, LocationRequest, LocationService, Notification, SharedNotification};
use mw_fusion::FusionEngine;
use mw_model::SimTime;
use mw_obs::{MetricsRegistry, Snapshot};
use mw_sensors::adapters::{UbisenseAdapter, UbisenseSighting};
use mw_sensors::{Adapter, HealthConfig, InstrumentedAdapter, SensorReading, SensorSupervisor};
use mw_spatial_db::SensorReadingTable;

use crate::alloc;
use crate::load::{poisson_offsets, room_rule, Clock};
use crate::run::{spawn_receiver, QueryMaker, Section, KEPT_NOTIFICATIONS};
use crate::scenario::{serve_rpc, setup, Step, System, Variant, Workload};
use crate::stats::Samples;
use crate::trace::Tracer;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Readings the twin services and the replay probes are fed.
const REPLAY_READINGS: usize = 10_000;
/// Calls per direct-query probe.
const QUERY_PROBES: usize = 4_000;

fn ingest_step(
    service: &LocationService,
    workload: Workload,
    step: Step,
    fired: &mut Vec<Notification>,
) {
    if workload.bridged() {
        // The open-loop workloads make one `ingest` per reading.
        let output = step
            .outputs
            .into_iter()
            .next()
            .expect("one output per reading");
        *fired = service.ingest(output, step.now);
    } else {
        service.ingest_batch_into(step.outputs, step.now, fired);
    }
}

/// Feeds the same steps to the workload's service and to its twins —
/// no rules, `new_with_obs`, bare `new` — one step at a time in turn, so
/// that drift hits all alike. Returns the workload's service, populated,
/// and the steps.
pub fn twin_pass(
    workload: Workload,
    seed: u64,
    div: usize,
    metrics: &mut Metrics,
    kept: &mut Vec<Notification>,
) -> (System, Vec<Step>) {
    let mut main = setup(workload, seed, div, Variant::Main, false);
    let no_rules = setup(workload, seed, div, Variant::NoRules, false);
    let bare = setup(workload, seed, div, Variant::Bare, false);
    // Only the office floor's own constructor differs from `new_with_obs`.
    let obs = (workload == Workload::OfficeTrigger)
        .then(|| setup(workload, seed, div, Variant::Obs, false));

    let clock = Clock::start();
    let mut steps = Vec::new();
    let mut fired = Vec::new();
    let (mut readings, mut allocs, mut alloc_bytes) = (0usize, 0u64, 0u64);
    let (mut main_ns, mut no_rules_ns, mut obs_ns, mut bare_ns) = (0u64, 0u64, 0u64, 0u64);
    let target = (REPLAY_READINGS / div).max(500);
    while readings < target {
        let step = main.feed.next_step();
        readings += step.readings();
        steps.push(step.clone());
        let mut time = |system: &System, count: bool| {
            let step = step.clone();
            let before = alloc::counts();
            alloc::counting(count);
            let t0 = clock.ns();
            ingest_step(&system.service, workload, step, &mut fired);
            let spent = clock.ns() - t0;
            alloc::counting(false);
            let after = alloc::counts();
            if count {
                allocs += after.0 - before.0;
                alloc_bytes += after.1 - before.1;
                if kept.len() < KEPT_NOTIFICATIONS {
                    kept.extend(fired.iter().take(64).cloned());
                }
            }
            spent
        };
        main_ns += time(&main, true);
        no_rules_ns += time(&no_rules, false);
        bare_ns += time(&bare, false);
        if let Some(obs) = &obs {
            obs_ns += time(obs, false);
        }
    }
    if obs.is_none() {
        obs_ns = main_ns;
    }
    let per_reading = |ns: u64| ns as f64 / readings as f64;
    metrics.insert("core.ingest_ns_per_reading", per_reading(main_ns));
    metrics.insert("core.norules_ns_per_reading", per_reading(no_rules_ns));
    metrics.insert(
        "core.rules_cost_ns_per_reading",
        per_reading(main_ns) - per_reading(no_rules_ns),
    );
    metrics.insert("core.allocs_per_reading", allocs as f64 / readings as f64);
    metrics.insert(
        "core.alloc_bytes_per_reading",
        alloc_bytes as f64 / readings as f64,
    );
    metrics.insert(
        "obs.ingest_overhead_ratio",
        obs_ns as f64 / bare_ns.max(1) as f64 - 1.0,
    );
    metrics.insert(
        "core.rule_register_ns_per_rule",
        main.rule_register_ns as f64 / main.rules.max(1) as f64,
    );
    no_rules.teardown();
    bare.teardown();
    if let Some(obs) = obs {
        obs.teardown();
    }
    (main, steps)
}

/// Times replayed calls into one layer at a time: every call is a
/// parentless `replay.*` span on the run's clock and a sample under the
/// span's name.
pub struct Replay<'a> {
    clock: Clock,
    tracer: &'a mut Tracer,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl<'a> Replay<'a> {
    pub fn new(clock: Clock, tracer: &'a mut Tracer) -> Replay<'a> {
        Replay {
            clock,
            tracer,
            samples: BTreeMap::new(),
        }
    }

    fn time<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let t0 = self.clock.ns();
        let out = call();
        let t1 = self.clock.ns();
        self.tracer.span(name, t0, t1, None, 0);
        self.samples.entry(name).or_default().push(t1 - t0);
        out
    }

    fn take(&mut self, name: &'static str) -> Samples {
        Samples::new(self.samples.remove(name).unwrap_or_default())
    }
}

/// Replays the steps' readings through `mw-sensors`, `mw-spatial-db` and
/// `mw-fusion` on their own.
pub fn replay_layers(system: &System, steps: &[Step], replay: &mut Replay, metrics: &mut Metrics) {
    // mw-sensors: the adapter, then the supervisor's gates.
    let registry = MetricsRegistry::new();
    let mut adapter = InstrumentedAdapter::new(
        UbisenseAdapter::with_parts(
            "mwbench-adapter".into(),
            "mwbench-ubi".into(),
            system.rooms[0].0.parse().expect("room names are globs"),
            0.9,
        ),
        &registry,
    );
    let mut supervisor = SensorSupervisor::new(HealthConfig::new(system.universe));
    let (mut readings, mut refused) = (0usize, 0usize);
    // mw-spatial-db and mw-fusion: revoke, insert, then fuse what the
    // object now carries and ask the posterior of the reading's region.
    let engine = FusionEngine::new(system.universe);
    let mut table = SensorReadingTable::new();
    for step in steps {
        let now = step.now;
        for output in &step.outputs {
            for r in &output.revocations {
                replay.time("replay.db.revoke", || table.revoke(&r.sensor_id, &r.object));
            }
            for reading in &output.readings {
                readings += 1;
                let sighting = UbisenseSighting {
                    tag: reading.object.clone(),
                    position: reading.region.center(),
                };
                replay.time("replay.sensors.translate", || {
                    adapter.translate(sighting, now)
                });
                let mut gated = reading.clone();
                if !replay
                    .time("replay.sensors.admit", || supervisor.admit(&mut gated, now))
                    .is_admitted()
                {
                    refused += 1;
                }
                let row = reading.clone();
                drop(replay.time("replay.db.insert", || table.insert(row)));
                let evidence: Vec<SensorReading> =
                    table.readings_for(&reading.object, now).cloned().collect();
                let mut result = replay.time("replay.fusion.fuse", || engine.fuse(&evidence, now));
                let p = replay.time("replay.fusion.region_probability", || {
                    result.region_probability(reading.region)
                });
                std::hint::black_box(p.ok());
            }
        }
    }
    let translate = replay.take("replay.sensors.translate");
    metrics.insert("sensors.translate_ns_p50", translate.p50());
    metrics.insert("sensors.translate_ns_p99", translate.p99());
    metrics.insert("sensors.translate_calls", translate.len() as f64);
    metrics.insert(
        "sensors.admit_ns_p50",
        replay.take("replay.sensors.admit").p50(),
    );
    metrics.insert(
        "sensors.rejected_ratio",
        refused as f64 / readings.max(1) as f64,
    );
    metrics.insert("db.insert_ns_p50", replay.take("replay.db.insert").p50());
    metrics.insert("db.revoke_ns_p50", replay.take("replay.db.revoke").p50());
    metrics.insert("db.readings_live", table.len() as f64);
    let fuse = replay.take("replay.fusion.fuse");
    metrics.insert("fusion.fuse_ns_p50", fuse.p50());
    metrics.insert("fusion.fuse_ns_p99", fuse.p99());
    metrics.insert(
        "fusion.region_prob_ns_p50",
        replay.take("replay.fusion.region_probability").p50(),
    );
}

/// Direct calls on the populated service, and the same `Locate` over RPC.
pub fn query_layers(
    system: &System,
    seed: u64,
    now: SimTime,
    replay: &mut Replay,
    metrics: &mut Metrics,
) {
    let service = &system.service;
    let mut q = QueryMaker::new(seed, system);
    for _ in 0..QUERY_PROBES {
        let object = q.person();
        let _ = replay.time("replay.core.locate", || service.locate(&object, now));
        let query = LocationQuery::of(q.person()).in_region(q.room()).at(now);
        let _ = replay.time("replay.core.region_probability", || service.query(query));
    }
    for _ in 0..QUERY_PROBES / 2 {
        let (a, b) = (q.person(), q.person());
        let _ = replay.time("replay.core.relation", || {
            service.co_location(&a, &b, 3, now)
        });
    }
    for _ in 0..QUERY_PROBES / 100 {
        let room = q.room();
        let _ = replay.time("replay.core.objects_in_region", || {
            service.objects_in_region(&room, 0.5, now)
        });
    }
    for _ in 0..QUERY_PROBES / 20 {
        let rule = room_rule(system.rooms[0].1);
        replay.time("replay.core.rule_churn", || {
            let id = service.subscribe_rule(rule);
            service.unsubscribe(id).expect("just subscribed");
        });
    }
    let locate = replay.take("replay.core.locate");
    metrics.insert("core.locate_ns_p50", locate.p50());
    metrics.insert("core.locate_ns_p99", locate.p99());
    metrics.insert(
        "core.region_prob_ns_p50",
        replay.take("replay.core.region_probability").p50(),
    );
    metrics.insert(
        "core.relation_ns_p50",
        replay.take("replay.core.relation").p50(),
    );
    metrics.insert(
        "core.objects_in_region_us_p50",
        replay.take("replay.core.objects_in_region").p50() / 1e3,
    );
    metrics.insert(
        "core.rule_churn_us_p50",
        replay.take("replay.core.rule_churn").p50() / 1e3,
    );

    // The same `Locate` through the RPC endpoint and directly, in pairs.
    let rpc = serve_rpc(service, &system.broker);
    let mut overhead = Vec::with_capacity(QUERY_PROBES);
    for _ in 0..QUERY_PROBES {
        let object = q.person();
        let request = LocationRequest::Locate {
            object: object.clone(),
            now,
        };
        let over_rpc = replay.clock.ns();
        let reply = replay.time("replay.bus.rpc", || rpc.client.call(request));
        let direct = replay.clock.ns();
        let fix = service.locate(&object, now);
        let done = replay.clock.ns();
        std::hint::black_box((reply.ok(), fix.ok()));
        overhead.push((direct - over_rpc).saturating_sub(done - direct));
    }
    rpc.stop(&system.broker);
    metrics.insert(
        "bus.rpc_overhead_us_p50",
        Samples::new(overhead).p50() / 1e3,
    );
}

/// `mw-bus` on its own, carrying the workload's notifications: the local
/// topic, the frame codec, and the TCP bridge at fixed rates.
pub fn bus_layers(
    notifications: &[Notification],
    seed: u64,
    div: usize,
    in_situ: &Section,
    bridged: bool,
    replay: &mut Replay,
    metrics: &mut Metrics,
) {
    assert!(
        !notifications.is_empty(),
        "the workload fired no notification to replay"
    );
    let n = REPLAY_READINGS / div;
    let shared: Vec<SharedNotification> = notifications.iter().cloned().map(Arc::new).collect();

    let topic = Broker::new().topic::<SharedNotification>("mwbench.local");
    let inbox = topic.subscribe();
    let mut bytes = 0usize;
    for k in 0..n {
        let message = Arc::clone(&shared[k % shared.len()]);
        let got = replay.time("replay.bus.local_publish", || {
            topic.publish(message);
            inbox.try_recv()
        });
        assert!(
            got.is_some(),
            "a local publish is delivered before it returns"
        );

        let message = &notifications[k % notifications.len()];
        let wire = replay.time("replay.bus.frame_encode", || {
            encode_frame(&Frame::data(k as u64 + 1, message).expect("notifications serialise"))
        });
        let back: Notification = replay.time("replay.bus.frame_decode", || {
            read_frame(&mut &wire[..])
                .expect("a frame just encoded reads back")
                .expect("not at end of input")
                .decode()
                .expect("a frame just encoded decodes")
        });
        assert_eq!(&back, message, "the codec round-trips");
        bytes += wire.len();
    }
    metrics.insert(
        "bus.local_publish_ns_p50",
        replay.take("replay.bus.local_publish").p50(),
    );
    metrics.insert(
        "bus.frame_encode_ns_p50",
        replay.take("replay.bus.frame_encode").p50(),
    );
    metrics.insert(
        "bus.frame_decode_ns_p50",
        replay.take("replay.bus.frame_decode").p50(),
    );
    metrics.insert("bus.frame_bytes_mean", bytes as f64 / n as f64);

    // The bridge at fixed publish rates. Without a bridge of its own the
    // workload's hop is the lowest rung's.
    let seconds = 1.5 / div as f64;
    let (hop, published, dropped, gaps, lost) = if bridged {
        let (server, client) = (&in_situ.server, &in_situ.client);
        (
            in_situ.hop.clone(),
            server.frames_published,
            server.frames_dropped,
            client.gaps_detected,
            client.frames_lost,
        )
    } else {
        let rung = bridge_rung(&shared, seed, 2_000.0, seconds);
        (rung.hop, rung.published, rung.dropped, rung.gaps, rung.lost)
    };
    metrics.insert("bus.remote_hop_us_p50", hop.p50() / 1e3);
    metrics.insert("bus.remote_hop_us_p99", hop.p99() / 1e3);
    metrics.insert("bus.frames_published", published as f64);
    metrics.insert("bus.frames_dropped", dropped as f64);
    metrics.insert("bus.client_gaps", gaps as f64);
    metrics.insert("bus.client_frames_lost", lost as f64);
    let rung = bridge_rung(&shared, seed, 16_000.0, seconds);
    metrics.insert("bus.ladder_p99_us_16k", rung.hop.p99() / 1e3);
    let rung = bridge_rung(&shared, seed, 32_000.0, seconds);
    metrics.insert(
        "bus.ladder_loss_ratio_32k",
        1.0 - rung.hop.len() as f64 / rung.published.max(1) as f64,
    );
}

struct Rung {
    hop: Samples,
    published: u64,
    dropped: u64,
    gaps: u64,
    lost: u64,
}

/// Publishes `shared` round-robin on a bridged topic, open loop at
/// `rate_per_s` for `seconds`, and times publish → remote receipt.
fn bridge_rung(shared: &[SharedNotification], seed: u64, rate_per_s: f64, seconds: f64) -> Rung {
    let topic = Broker::new().topic::<SharedNotification>("mwbench.ladder");
    let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).expect("bind the bridge");
    let inbox =
        remote_subscribe_with::<Notification>(server.local_addr(), SubscribeOptions::default())
            .expect("subscribe over the bridge");
    let n = (rate_per_s * seconds) as usize;
    let offsets = poisson_offsets(seed ^ 0x1add, rate_per_s, n);
    // Receipts are matched to publishes by `Notification::at`.
    let messages: Vec<SharedNotification> = (0..n)
        .map(|k| {
            let mut message = (*shared[k % shared.len()]).clone();
            message.at = SimTime::from_secs(k as f64);
            Arc::new(message)
        })
        .collect();

    let clock = Clock::start();
    let received = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let receiver = spawn_receiver(inbox, clock, Arc::clone(&received), Arc::clone(&stop));
    let start_ns = clock.ns() + 5_000_000;
    let mut sent_ns = vec![0u64; n];
    for (k, message) in messages.into_iter().enumerate() {
        clock.wait_until(start_ns + offsets[k]);
        sent_ns[k] = clock.ns();
        topic.publish(message);
    }
    let settle = Clock::start();
    while received.load(Ordering::Relaxed) < n && settle.ns() < 500_000_000 {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let (log, _, client) = receiver.join().expect("receiver thread panicked");
    let stats = server.stats();
    server.shutdown();
    let hop = log
        .iter()
        .map(|r| {
            r.t_ns
                .saturating_sub(sent_ns[f64::from_bits(r.at_bits) as usize])
        })
        .collect();
    Rung {
        hop: Samples::new(hop),
        published: n as u64,
        dropped: stats.frames_dropped,
        gaps: client.gaps_detected,
        lost: client.frames_lost,
    }
}

/// The counters the program keeps, over the traced section only.
pub fn registry_layers(before: &Snapshot, after: &Snapshot, metrics: &mut Metrics) {
    let counter = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let histogram_mean = |name: &str| {
        let (a, b) = (after.histogram(name), before.histogram(name));
        let count = a.map_or(0, |h| h.count) - b.map_or(0, |h| h.count);
        let sum = a.map_or(0, |h| h.sum) - b.map_or(0, |h| h.sum);
        ratio(sum as f64, count as f64)
    };
    let fuses = counter("fusion.fuse.count");
    metrics.insert("fusion.fuse_calls", fuses);
    metrics.insert(
        "fusion.evidence_per_fuse_mean",
        histogram_mean("fusion.evidence.kept"),
    );
    metrics.insert(
        "fusion.lattice_regions_mean",
        histogram_mean("fusion.lattice.size"),
    );
    let (hits, misses) = (counter("fusion.cache.hits"), counter("fusion.cache.misses"));
    metrics.insert("fusion.cache_hit_ratio", ratio(hits, hits + misses));
    metrics.insert(
        "core.rules_candidates_per_selection",
        ratio(
            counter("rules.candidates.examined"),
            counter("rules.candidates.selections"),
        ),
    );
    metrics.insert(
        "core.rules_atoms_per_fuse",
        ratio(counter("rules.eval.atoms"), fuses),
    );
    let (dirty, skipped) = (counter("rules.eval.dirty"), counter("rules.eval.skipped"));
    metrics.insert("core.rules_skipped_ratio", ratio(skipped, dirty + skipped));
    metrics.insert(
        "core.rules_sharing_ratio",
        after.gauge("rules.dag.sharing_ratio").unwrap_or(0.0),
    );
    metrics.insert("core.shard_contention", counter("core.shard.contention"));
    metrics.insert(
        "core.bytes_per_object",
        after.gauge("core.mem.bytes_per_object").unwrap_or(0.0),
    );
}

/// What the traced section itself shows of `mw-sim` and `mw-core`.
pub fn section_layers(section: &Section, metrics: &mut Metrics) {
    metrics.insert(
        "sim.generate_ns_per_reading",
        section.generate_ns_per_reading,
    );
    metrics.insert("sim.generator_lag_p99_us", section.lag_p99_ns / 1e3);
    metrics.insert("core.ingest_call_ns_p50", section.ingest_call.p50());
    metrics.insert("core.ingest_call_ns_p99", section.ingest_call.p99());
    metrics.insert(
        "core.fanout_per_reading_mean",
        section.fanout_milli.mean() / 1e3,
    );
    metrics.insert(
        "core.fanout_per_reading_p99",
        section.fanout_milli.p99() / 1e3,
    );
}
