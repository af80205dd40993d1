//! The timed sections: the open-loop trigger workloads, the closed-loop
//! batch workload and the closed-loop query workload, each with the
//! reference checks that decide `failed`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mw_bus::remote::{ClientStats, RemoteSubscription, ServerStats};
use mw_core::{
    LocationQuery, LocationRequest, LocationResponse, LocationService, Notification,
    SharedNotification, NOTIFICATION_TOPIC,
};
use mw_geometry::Rect;
use mw_model::SimTime;
use mw_sensors::MobileObjectId;
use mw_sim::zipf::{sample_zipf, zipf_cdf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{poisson_offsets, Clock, ZIPF_S};
use crate::scenario::{rect_key, room_index, Step, System, Workload};
use crate::stats::{warmup_cut, windowed_percentile, Samples};
use crate::trace::{Tracer, REQUEST};

/// A notification later than this after its reading was due has failed.
const DELIVERY_LIMIT_NS: u64 = 1_000_000_000;
/// An open-loop run whose generator ran later than this at p99 measured
/// the generator, not the system, and fails as a whole.
const LAG_LIMIT_NS: u64 = 1_000_000;
/// A send this late means the generator itself stood still: a run with
/// failures and such a stall is made again before the failures are
/// believed.
const STALL_NS: u64 = 50_000_000;
/// Queries per round of `query_mix`.
const QUERIES_PER_ROUND: usize = 200;
/// Notifications kept for the bus replay probes.
pub const KEPT_NOTIFICATIONS: usize = 4_000;

/// What one timed section measured. Times are nanoseconds; every sample
/// set excludes the warm-up.
#[derive(Debug, Default)]
pub struct Section {
    /// The workload's response, in time order: due → remote receipt,
    /// batch call → drained, or RPC call → reply.
    pub response: Vec<u64>,
    /// `(readings, ns)` of every ingest after the warm-up, in time order;
    /// the ns include the drain on the batch workload.
    pub ingests: Vec<(u32, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the report.
    pub notes: Vec<String>,
    /// The run was disturbed — the generator ran late or the backlog
    /// grew — and measured nothing; it is counted wholly failed.
    pub unsteady: bool,
    pub ingest_call: Samples,
    pub fanout_milli: Samples,
    /// Generator lag p99 (due → sent), the median of the windows' own.
    pub lag_p99_ns: f64,
    pub hop: Samples,
    pub generate_ns_per_reading: f64,
    pub server: ServerStats,
    pub client: ClientStats,
    pub notifications: Vec<Notification>,
}

impl Section {
    fn fail(&mut self, count: u64, why: String) {
        if count > 0 {
            self.failed += count;
            if self.notes.len() < 8 {
                self.notes.push(format!("{count} × {why}"));
            }
        }
    }

    pub fn readings(&self) -> u64 {
        self.ingests.iter().map(|c| u64::from(c.0)).sum()
    }
}

pub fn run_section(
    system: &mut System,
    seed: u64,
    seconds: f64,
    clock: Clock,
    tracer: Option<&mut Tracer>,
) -> Section {
    match system.workload {
        Workload::OfficeTrigger | Workload::RemoteFanout => {
            open_loop(system, seed, seconds, clock, tracer)
        }
        Workload::CityBatch => batch_loop(system, seconds, clock, tracer),
        Workload::QueryMix => query_loop(system, seed, seconds, clock, tracer),
    }
}

// --- occupancy model -------------------------------------------------------

/// The reference the `City` workloads are checked against: who is in
/// which room, from the generator's own outputs, and how many
/// notifications each move must therefore fire (one per rule on the room
/// entered).
struct Occupancy {
    rules_on_room: Vec<u32>,
    room_of: HashMap<[u64; 4], usize>,
    rects: Vec<Rect>,
    at: HashMap<MobileObjectId, usize>,
}

impl Occupancy {
    fn new(system: &System) -> Occupancy {
        Occupancy {
            rules_on_room: system.rules_on_room.clone(),
            room_of: room_index(&system.rooms),
            rects: system.rooms.iter().map(|(_, r)| *r).collect(),
            at: system.placed.iter().cloned().collect(),
        }
    }

    /// Applies a step's moves; returns the notifications they must fire.
    fn apply(&mut self, step: &Step) -> u64 {
        let mut expected = 0;
        for reading in step.outputs.iter().flat_map(|o| &o.readings) {
            let room = self.room_of[&rect_key(&reading.region)];
            expected += u64::from(self.rules_on_room[room]);
            self.at.insert(reading.object.clone(), room);
        }
        expected
    }

    /// Whether a fix's region is the room the generator put `object` in.
    fn fix_is_true(&self, object: &MobileObjectId, region: &Rect) -> bool {
        self.at.get(object).is_some_and(|&room| {
            region.contains_rect(&self.rects[room]) || self.rects[room].contains_rect(region)
        })
    }
}

// --- open loop ---------------------------------------------------------------

pub struct Received {
    pub t_ns: u64,
    pub at_bits: u64,
    pub subscription: u64,
    pub object: MobileObjectId,
}

pub fn spawn_receiver(
    inbox: RemoteSubscription<Notification>,
    clock: Clock,
    received: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<(Vec<Received>, Vec<Notification>, ClientStats)> {
    std::thread::spawn(move || {
        let mut log = Vec::new();
        let mut kept = Vec::new();
        loop {
            match inbox.recv_timeout(Duration::from_millis(20)) {
                Some(n) => {
                    let t_ns = clock.ns();
                    log.push(Received {
                        t_ns,
                        at_bits: n.at.as_secs().to_bits(),
                        subscription: n.subscription.value(),
                        object: n.object.clone(),
                    });
                    if kept.len() < KEPT_NOTIFICATIONS {
                        kept.push(n);
                    }
                    received.fetch_add(1, Ordering::Relaxed);
                }
                None if stop.load(Ordering::Relaxed) => break,
                None => {}
            }
        }
        let stats = inbox.stats();
        (log, kept, stats)
    })
}

fn open_loop(
    system: &mut System,
    seed: u64,
    seconds: f64,
    clock: Clock,
    mut tracer: Option<&mut Tracer>,
) -> Section {
    let rate = system.workload.rate_per_s().expect("open-loop workload");
    let n = (rate * seconds) as usize;
    let mut section = Section::default();

    // Inputs, made off the clock.
    let gen_clock = Clock::start();
    let steps: Vec<Step> = (0..n).map(|_| system.feed.next_step()).collect();
    let total_readings: usize = steps.iter().map(Step::readings).sum();
    section.generate_ns_per_reading = gen_clock.ns() as f64 / total_readings.max(1) as f64;
    let offsets = poisson_offsets(seed ^ 0x0f5e, rate, n);
    // Receipts are matched to readings by `Notification::at`.
    let now_bits: Vec<u64> = steps.iter().map(|s| s.now.as_secs().to_bits()).collect();
    let index_of_now: HashMap<u64, usize> = now_bits
        .iter()
        .enumerate()
        .map(|(i, &bits)| (bits, i))
        .collect();
    assert_eq!(index_of_now.len(), n, "every reading has its own `now`");
    let expected_by_model: Option<u64> = (!system.rules_on_room.is_empty()).then(|| {
        let mut occupancy = Occupancy::new(system);
        steps.iter().map(|s| occupancy.apply(s)).sum()
    });
    let readings_of: Vec<u32> = steps.iter().map(|s| s.readings() as u32).collect();

    let received = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let bridge = system
        .bridge
        .as_mut()
        .expect("open-loop workloads are bridged");
    let inbox = bridge.inbox.take().expect("the inbox is taken once");
    let receiver = spawn_receiver(inbox, clock, Arc::clone(&received), Arc::clone(&stop));

    // The driver: one `ingest` per reading, sent when due whatever the
    // service is doing.
    let service = Arc::clone(&system.service);
    let start_ns = clock.ns() + 5_000_000;
    let mut sent_ns = vec![0u64; n];
    let mut done_ns = vec![0u64; n];
    let mut fired_log: Vec<(u32, u64, MobileObjectId)> = Vec::new();
    let mut fired_of = vec![0u32; n];
    let mut backlog_mid = 0usize;
    for (i, step) in steps.into_iter().enumerate() {
        let due = start_ns + offsets[i];
        clock.wait_until(due);
        let woke = clock.ns();
        let output = step
            .outputs
            .into_iter()
            .next()
            .expect("one output per reading");
        let t0 = clock.ns();
        let fired = service.ingest(output, step.now);
        let t1 = clock.ns();
        sent_ns[i] = t0;
        done_ns[i] = t1;
        fired_of[i] = fired.len() as u32;
        for f in fired {
            fired_log.push((i as u32, f.subscription.value(), f.object));
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            // Parents are patched to the request spans after the run,
            // when the receipts that close them are known.
            tracer.span("gen.wait", due, woke, None, i as u64);
            tracer.span("core.ingest", t0, t1, None, i as u64);
        }
        if i == n / 2 {
            backlog_mid = fired_log
                .len()
                .saturating_sub(received.load(Ordering::Relaxed));
        }
    }
    let backlog_end = fired_log
        .len()
        .saturating_sub(received.load(Ordering::Relaxed));

    // Let the tail arrive, then stop the receiver.
    let settle = Clock::start();
    while received.load(Ordering::Relaxed) < fired_log.len() && settle.ns() < 2 * DELIVERY_LIMIT_NS
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let (log, kept, client) = receiver.join().expect("receiver thread panicked");
    section.client = client;
    section.server = system.bridge.as_ref().expect("bridged").server.stats();
    section.notifications = kept;

    // Reference: what arrived remotely is what `ingest` returned, once
    // each and in per-object order.
    let mut fired_by_object: HashMap<&MobileObjectId, Vec<(u64, u64)>> = HashMap::new();
    for (i, subscription, object) in &fired_log {
        fired_by_object
            .entry(object)
            .or_default()
            .push((now_bits[*i as usize], *subscription));
    }
    let mut got_by_object: HashMap<&MobileObjectId, Vec<(u64, u64)>> = HashMap::new();
    for r in &log {
        got_by_object
            .entry(&r.object)
            .or_default()
            .push((r.at_bits, r.subscription));
    }
    let (mut missing, mut unexpected, mut disordered) = (0u64, 0u64, 0u64);
    for (object, fired) in &fired_by_object {
        let got = got_by_object.remove(object).unwrap_or_default();
        if *fired == got {
            continue;
        }
        let (mut a, mut b) = (fired.clone(), got.clone());
        a.sort_unstable();
        b.sort_unstable();
        if a == b {
            disordered += fired.iter().zip(&got).filter(|(x, y)| x != y).count() as u64;
        } else {
            let (lost, extra) = multiset_difference(&a, &b);
            missing += lost;
            unexpected += extra;
        }
    }
    unexpected += got_by_object.values().map(|v| v.len() as u64).sum::<u64>();
    section.fail(missing, "notification fired but never received".into());
    section.fail(
        unexpected,
        "notification received twice or never fired".into(),
    );
    section.fail(disordered, "notification out of per-object order".into());
    if let Some(expected) = expected_by_model {
        let fired = fired_log.len() as u64;
        section.fail(
            expected.abs_diff(fired),
            format!("notifications fired ({fired}) differ from the occupancy model ({expected})"),
        );
    }

    // Latencies, from when each reading was due.
    let cut = warmup_cut(n);
    let mut response = Vec::new();
    let mut hop = Vec::new();
    let mut last_receipt = vec![0u64; n];
    let mut late = 0u64;
    for r in &log {
        let Some(&i) = index_of_now.get(&r.at_bits) else {
            continue; // counted as unexpected above
        };
        let due = start_ns + offsets[i];
        let latency = r.t_ns.saturating_sub(due);
        if latency > DELIVERY_LIMIT_NS {
            late += 1;
        }
        last_receipt[i] = last_receipt[i].max(r.t_ns);
        if i >= cut {
            response.push(latency);
            hop.push(r.t_ns.saturating_sub(done_ns[i]));
        }
    }
    section.fail(
        late,
        "notification later than 1 s after its reading was due".into(),
    );

    // The guards. Lag is due → sent, so it includes waiting behind the
    // previous `ingest`; like the metrics it is judged on the median
    // window, which one host stall does not move. A stall long enough to
    // make the bridge drop frames is told by the latest send instead.
    let lag: Vec<u64> = (cut..n)
        .map(|i| sent_ns[i] - (start_ns + offsets[i]).min(sent_ns[i]))
        .collect();
    section.lag_p99_ns = windowed_percentile(&lag, 99.0);
    let worst_lag = lag.iter().copied().max().unwrap_or(0);
    section.attempted = n as u64 + fired_log.len() as u64;
    let slack = (fired_log.len() as f64 / seconds * 0.05) as usize + 64;
    if section.lag_p99_ns > LAG_LIMIT_NS as f64 {
        section.unsteady = true;
        section.notes.push(format!(
            "generator lag p99 {:.0} ns exceeds 1 ms",
            section.lag_p99_ns
        ));
    } else if backlog_end > backlog_mid + slack {
        section.unsteady = true;
        section.notes.push(format!(
            "undelivered backlog grew from {backlog_mid} at the midpoint to {backlog_end} at the end"
        ));
    } else if section.failed > 0 && worst_lag > STALL_NS {
        section.unsteady = true;
        section
            .notes
            .push(format!("the generator stalled for {worst_lag} ns"));
    }
    if section.unsteady {
        section.failed = section.attempted;
    }

    section.response = response;
    section.hop = Samples::new(hop);
    section.ingests = (cut..n)
        .map(|i| (readings_of[i], done_ns[i] - sent_ns[i]))
        .collect();
    section.ingest_call = Samples::new(section.ingests.iter().map(|c| c.1).collect());
    section.fanout_milli = Samples::new(
        (cut..n)
            .filter(|&i| readings_of[i] > 0)
            .map(|i| u64::from(fired_of[i]) * 1000 / u64::from(readings_of[i]))
            .collect(),
    );

    if let Some(tracer) = tracer {
        close_requests(tracer, |i| {
            let due = start_ns + offsets[i];
            (due, done_ns[i], last_receipt[i])
        });
    }
    section
}

/// Sizes of `a − b` and `b − a` for two ascending multisets.
fn multiset_difference(a: &[(u64, u64)], b: &[(u64, u64)]) -> (u64, u64) {
    let (mut i, mut j, mut only_a, mut only_b) = (0, 0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                only_a += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                only_b += 1;
                j += 1;
            }
        }
    }
    (only_a + (a.len() - i) as u64, only_b + (b.len() - j) as u64)
}

/// Gives every open-loop reading its root span — due → last receipt, or
/// → `ingest` return when it fired nothing — with the driver's spans and
/// the remote hop under it.
fn close_requests(tracer: &mut Tracer, times: impl Fn(usize) -> (u64, u64, u64)) {
    let driver: Vec<(usize, u64)> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && (s.name == "gen.wait" || s.name == "core.ingest"))
        .map(|(k, s)| (k, s.request))
        .collect();
    let mut root_of: HashMap<u64, u32> = HashMap::new();
    for (k, request) in driver {
        let (due, done, receipt) = times(request as usize);
        let root = *root_of.entry(request).or_insert_with(|| {
            let root = tracer.span(REQUEST, due, done.max(receipt), None, request);
            if receipt > done {
                tracer.span("bus.remote_hop", done, receipt, Some(root), request);
            }
            root
        });
        tracer.set_parent(k, root);
    }
}

// --- closed loop: batches ---------------------------------------------------

fn batch_loop(
    system: &mut System,
    seconds: f64,
    clock: Clock,
    mut tracer: Option<&mut Tracer>,
) -> Section {
    let mut section = Section::default();
    let inbox = system
        .broker
        .topic::<SharedNotification>(NOTIFICATION_TOPIC)
        .subscribe();
    let service = Arc::clone(&system.service);
    let mut occupancy = Occupancy::new(system);
    let end_ns = clock.ns() + (seconds * 1e9) as u64;

    // (full, readings, call ns, call+drain ns, fired)
    let mut calls: Vec<(bool, u32, u64, u64, u32)> = Vec::new();
    let mut fired: Vec<Notification> = Vec::new();
    let (mut generate_ns, mut generated) = (0u64, 0u64);
    let (mut expected, mut total_fired, mut mismatched, mut untrue) = (0u64, 0u64, 0u64, 0u64);
    while clock.ns() < end_ns {
        let g0 = clock.ns();
        let step = system.feed.next_step();
        generate_ns += clock.ns() - g0;
        generated += step.readings() as u64;
        expected += occupancy.apply(&step);
        let readings = step.readings() as u32;
        let probe = step.outputs[0].readings[0].object.clone();
        let request = calls.len() as u64;

        let t0 = clock.ns();
        service.ingest_batch_into(step.outputs, step.now, &mut fired);
        let t1 = clock.ns();
        let drained = inbox.drain();
        let t2 = clock.ns();

        calls.push((step.full, readings, t1 - t0, t2 - t0, fired.len() as u32));
        total_fired += fired.len() as u64;
        if drained.len() != fired.len() || drained.iter().zip(&fired).any(|(d, f)| **d != *f) {
            mismatched += drained.len().abs_diff(fired.len()).max(1) as u64;
        }
        match service.locate(&probe, step.now) {
            Ok(fix) if occupancy.fix_is_true(&probe, &fix.region) => {}
            _ => untrue += 1,
        }
        if section.notifications.len() < KEPT_NOTIFICATIONS {
            section.notifications.extend(fired.iter().take(64).cloned());
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let root = tracer.span(REQUEST, t0, t2, None, request);
            tracer.span("core.ingest", t0, t1, Some(root), request);
            tracer.span("bus.local_drain", t1, t2, Some(root), request);
        }
    }

    section.attempted = generated + total_fired + calls.len() as u64;
    section.fail(
        mismatched,
        "drained notifications differ from the `fired` vector".into(),
    );
    section.fail(
        expected.abs_diff(total_fired),
        format!("notifications fired ({total_fired}) differ from the occupancy model ({expected})"),
    );
    section.fail(
        untrue,
        "`locate` fix is not the generator's true room".into(),
    );
    section.generate_ns_per_reading = generate_ns as f64 / generated.max(1) as f64;

    let cut = warmup_cut(calls.len());
    let timed: Vec<_> = calls[cut..].iter().filter(|c| c.0).collect();
    section.response = timed.iter().map(|c| c.3).collect();
    section.ingests = timed.iter().map(|c| (c.1, c.3)).collect();
    section.ingest_call = Samples::new(timed.iter().map(|c| c.2).collect());
    section.fanout_milli = Samples::new(
        timed
            .iter()
            .map(|c| u64::from(c.4) * 1000 / u64::from(c.1))
            .collect(),
    );
    section
}

// --- closed loop: queries beside writes ---------------------------------------

/// The direct call an RPC reply must equal, rendered the same way.
fn direct_reply(service: &LocationService, request: &LocationRequest) -> String {
    let reply = match request.clone() {
        LocationRequest::Locate { object, now } => match service.locate(&object, now) {
            Ok(fix) => LocationResponse::Fix(Some(fix)),
            Err(mw_core::CoreError::NoLocation { .. }) => LocationResponse::Fix(None),
            Err(e) => LocationResponse::Error(e.to_string()),
        },
        LocationRequest::RegionProbability {
            object,
            region,
            now,
        } => match service.query(LocationQuery::of(object).in_region(region).at(now)) {
            Ok(answer) => LocationResponse::Probability(answer.probability().unwrap_or(0.0)),
            Err(mw_core::CoreError::NoLocation { .. }) => LocationResponse::Probability(0.0),
            Err(e) => LocationResponse::Error(e.to_string()),
        },
        LocationRequest::ObjectsInRegion {
            region,
            min_probability,
            now,
        } => match service.objects_in_region(&region, min_probability, now) {
            Ok(v) => LocationResponse::Objects(v),
            Err(e) => LocationResponse::Error(e.to_string()),
        },
        other => unreachable!("not a read: {other:?}"),
    };
    format!("{reply:?}")
}

/// Seeded reads over Zipf-popular objects and rooms: 60 % `Locate`,
/// 33 % `RegionProbability`, 7 % `ObjectsInRegion` — 7, not 5, so that the
/// p95 lies well inside the region scans and not on the edge between them
/// and the point reads.
pub struct QueryMaker {
    rng: StdRng,
    people: Vec<MobileObjectId>,
    rooms: Vec<String>,
    people_cdf: Vec<f64>,
    rooms_cdf: Vec<f64>,
}

impl QueryMaker {
    pub fn new(seed: u64, system: &System) -> QueryMaker {
        QueryMaker {
            rng: StdRng::seed_from_u64(seed ^ 0x9e4),
            people: system.people.clone(),
            rooms: system.rooms.iter().map(|(name, _)| name.clone()).collect(),
            people_cdf: zipf_cdf(system.people.len(), ZIPF_S),
            rooms_cdf: zipf_cdf(system.rooms.len(), ZIPF_S),
        }
    }

    pub fn person(&mut self) -> MobileObjectId {
        self.people[sample_zipf(&self.people_cdf, &mut self.rng)].clone()
    }

    pub fn room(&mut self) -> String {
        self.rooms[sample_zipf(&self.rooms_cdf, &mut self.rng)].clone()
    }

    pub fn one_in(&mut self, n: usize) -> bool {
        self.rng.gen_range(0..n) == 0
    }

    pub fn read(&mut self, now: SimTime) -> LocationRequest {
        match self.rng.gen_range(0..100) {
            0..=59 => LocationRequest::Locate {
                object: self.person(),
                now,
            },
            60..=92 => LocationRequest::RegionProbability {
                object: self.person(),
                region: self.room(),
                now,
            },
            _ => LocationRequest::ObjectsInRegion {
                region: self.room(),
                min_probability: 0.5,
                now,
            },
        }
    }
}

fn query_loop(
    system: &mut System,
    seed: u64,
    seconds: f64,
    clock: Clock,
    mut tracer: Option<&mut Tracer>,
) -> Section {
    let mut section = Section::default();
    let service = Arc::clone(&system.service);
    let client = system
        .rpc
        .as_ref()
        .expect("query_mix serves RPC")
        .client
        .clone();
    let mut queries = QueryMaker::new(seed, system);
    let mut occupancy = Occupancy::new(system);
    let end_ns = clock.ns() + (seconds * 1e9) as u64;

    // Per round: (readings, ingest ns, first query index, fired).
    let mut rounds: Vec<(u32, u64, usize, u32)> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut fired: Vec<Notification> = Vec::new();
    let (mut generate_ns, mut generated) = (0u64, 0u64);
    let (mut expected, mut total_fired) = (0u64, 0u64);
    let (mut errors, mut differing, mut untrue, mut compared) = (0u64, 0u64, 0u64, 0u64);
    while clock.ns() < end_ns {
        let g0 = clock.ns();
        let step = system.feed.next_step();
        generate_ns += clock.ns() - g0;
        generated += step.readings() as u64;
        expected += occupancy.apply(&step);
        let readings = step.readings() as u32;
        let now = step.now;
        let request = (rounds.len() * (QUERIES_PER_ROUND + 1)) as u64;

        let t0 = clock.ns();
        service.ingest_batch_into(step.outputs, now, &mut fired);
        let t1 = clock.ns();
        rounds.push((readings, t1 - t0, latencies.len(), fired.len() as u32));
        total_fired += fired.len() as u64;
        if section.notifications.len() < KEPT_NOTIFICATIONS {
            section.notifications.extend(fired.iter().cloned());
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let root = tracer.span(REQUEST, t0, t1, None, request);
            tracer.span("core.ingest", t0, t1, Some(root), request);
        }

        for q in 0..QUERIES_PER_ROUND {
            let read = queries.read(now);
            let check = queries.one_in(100);
            let t0 = clock.ns();
            let call = read.clone();
            let sent = clock.ns();
            let reply = client.call(call);
            let back = clock.ns();
            latencies.push(back - sent);
            match &reply {
                Err(_) | Ok(LocationResponse::Error(_)) => errors += 1,
                Ok(LocationResponse::Fix(fix)) => {
                    let LocationRequest::Locate { object, .. } = &read else {
                        unreachable!("only Locate is answered with a fix");
                    };
                    if !fix
                        .as_ref()
                        .is_some_and(|f| occupancy.fix_is_true(object, &f.region))
                    {
                        untrue += 1;
                    }
                }
                Ok(_) => {}
            }
            // Replaying every read would double the traced section's work
            // and slow the reads that follow; one in sixteen is replayed.
            let replayed = tracer.is_some() && q % 16 == 0;
            if check || replayed {
                let d0 = clock.ns();
                let direct = direct_reply(&service, &read);
                let d1 = clock.ns();
                if check {
                    compared += 1;
                    if reply.as_ref().map(|r| format!("{r:?}")).ok() != Some(direct) {
                        differing += 1;
                    }
                }
                if replayed {
                    if let Some(tracer) = tracer.as_deref_mut() {
                        tracer.span("replay.core.query", d0, d1, None, request + 1 + q as u64);
                    }
                }
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                let id = request + 1 + q as u64;
                let root = tracer.span(REQUEST, t0, back, None, id);
                tracer.span("bus.rpc", sent, back, Some(root), id);
            }
        }

        // Rule churn beside the reads: one remote subscribe/unsubscribe.
        let subscribed = client.call(LocationRequest::Subscribe {
            region: queries.room(),
            min_probability: 0.5,
            object: Some(queries.person()),
        });
        let unsubscribed = match subscribed {
            Ok(LocationResponse::Subscribed(id)) => {
                client.call(LocationRequest::Unsubscribe { id })
            }
            other => other,
        };
        if !matches!(unsubscribed, Ok(LocationResponse::Unsubscribed)) {
            errors += 1;
        }
    }

    section.attempted = generated + (latencies.len() + 2 * rounds.len()) as u64;
    section.fail(errors, "RPC failed or answered with an error".into());
    section.fail(
        differing,
        format!("RPC reply differs from the direct call ({compared} compared)"),
    );
    section.fail(
        untrue,
        "`Locate` fix is not the generator's true room".into(),
    );
    section.fail(
        expected.abs_diff(total_fired),
        format!("notifications fired ({total_fired}) differ from the occupancy model ({expected})"),
    );
    section.generate_ns_per_reading = generate_ns as f64 / generated.max(1) as f64;

    let cut = warmup_cut(rounds.len());
    let first_query = rounds.get(cut).map_or(latencies.len(), |r| r.2);
    section.response = latencies.split_off(first_query);
    section.ingests = rounds[cut..].iter().map(|r| (r.0, r.1)).collect();
    section.ingest_call = Samples::new(section.ingests.iter().map(|c| c.1).collect());
    section.fanout_milli = Samples::new(
        rounds[cut..]
            .iter()
            .filter(|r| r.0 > 0)
            .map(|r| u64::from(r.3) * 1000 / u64::from(r.0))
            .collect(),
    );
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_difference_counts_both_sides() {
        let a = [(1, 1), (2, 1), (2, 1), (5, 9)];
        let b = [(2, 1), (3, 3), (5, 9), (5, 9)];
        assert_eq!(multiset_difference(&a, &b), (2, 2));
        assert_eq!(multiset_difference(&a, &a), (0, 0));
        assert_eq!(multiset_difference(&[], &b), (0, 4));
    }
}
