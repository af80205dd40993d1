//! **Figure 9 reproduction** — trigger response time.
//!
//! The paper: "Figure 9 shows the time taken for a trigger to be notified
//! by MiddleWhere. The graph shows the trigger response times for 10
//! different updates to the location service. The various curves indicate
//! the number of trigger notifications programmed into the location
//! service. We expected the response time to increase with the number of
//! programmed triggers but we found that the response time was almost
//! independent of it. … the first update requires a higher trigger
//! response time than subsequent updates … due to the initial setup
//! time."
//!
//! This harness measures the same end-to-end path on our bus: a location
//! update is ingested, subscriptions are evaluated against the fused
//! posterior, and the notification is delivered to a bus subscriber. One
//! curve per programmed-trigger count; ten updates per curve.
//!
//! Absolute numbers differ from the paper's (PostGIS + Orbacus on 2004
//! hardware vs. an in-process engine); the claims under test are the
//! *shape*: near-independence of the trigger count, and a more expensive
//! first update.
//!
//! Run with `cargo run -p mw-bench --release --bin fig9_trigger_response`.

use std::time::{Duration, Instant};

use mw_bench::{service_with_triggers, ubisense_reading};
use mw_core::{Notification, SharedNotification, SubscriptionSpec, NOTIFICATION_TOPIC};
use mw_geometry::{Point, Rect};
use mw_model::{SimDuration, SimTime};

const TRIGGER_COUNTS: &[usize] = &[1, 10, 100, 1000];
const UPDATES: usize = 10;

fn main() {
    println!("# Figure 9: trigger response time");
    println!("# rows: update number 1..{UPDATES}; columns: programmed trigger counts");
    println!();

    let mut table: Vec<Vec<Duration>> = Vec::new();
    for &n_triggers in TRIGGER_COUNTS {
        // A fresh service per curve, exactly like re-programming the
        // deployment. One extra subscription is the "watched" one whose
        // notification we time.
        let (service, broker) = service_with_triggers(n_triggers.saturating_sub(1), 42);
        let watched = Rect::new(Point::new(330.0, 0.0), Point::new(350.0, 30.0));
        let _watched_id = service.subscribe(
            SubscriptionSpec::region_entry(watched, 0.5).for_object("fig9-person".into()),
        );
        let inbox = broker
            .topic::<SharedNotification>(NOTIFICATION_TOPIC)
            .subscribe();

        let mut samples = Vec::with_capacity(UPDATES);
        for update in 0..UPDATES {
            // Alternate in/out of the watched region so every entry is a
            // rising edge and fires the notification.
            let t_out = SimTime::from_secs(update as f64 * 10.0);
            let outside = ubisense_reading("fig9-person", Point::new(100.0, 80.0), t_out);
            service.ingest_reading(outside, t_out);
            let _ = inbox.drain();

            let t_in = t_out + SimDuration::from_secs(5.0);
            let inside = ubisense_reading("fig9-person", Point::new(340.0, 15.0), t_in);
            let start = Instant::now();
            service.ingest_reading(inside, t_in);
            let n = inbox
                .recv_timeout(Duration::from_secs(5))
                .expect("notification must fire");
            let elapsed = start.elapsed();
            assert_eq!(n.object, "fig9-person".into());
            samples.push(elapsed);
        }
        table.push(samples);
    }

    // Print the figure's series.
    print!("{:>8}", "update");
    for &n in TRIGGER_COUNTS {
        print!("{:>14}", format!("{n} triggers"));
    }
    println!();
    for update in 0..UPDATES {
        print!("{:>8}", update + 1);
        for col in &table {
            print!("{:>14.1?}", col[update]);
        }
        println!();
    }

    // --- remote variant: include a TCP hop like the paper's CORBA path ---
    println!();
    println!("# remote variant: notification crosses the TCP bridge");
    {
        let (service, broker) = service_with_triggers(999, 42);
        let watched = Rect::new(Point::new(330.0, 0.0), Point::new(350.0, 30.0));
        let id = service.subscribe(
            SubscriptionSpec::region_entry(watched, 0.5).for_object("fig9-person".into()),
        );
        // The bridge serves the Arc-wrapped topic; `Arc<T>` is
        // wire-transparent, so the remote side still decodes plain
        // `Notification`s.
        let topic = broker.topic::<SharedNotification>(mw_core::NOTIFICATION_TOPIC);
        let server =
            mw_bus::remote::RemoteTopicServer::bind("127.0.0.1:0", topic).expect("bind bridge");
        let remote_inbox = mw_bus::remote::remote_subscribe::<Notification>(server.local_addr())
            .expect("connect bridge");
        std::thread::sleep(Duration::from_millis(100));
        let mut samples = Vec::with_capacity(UPDATES);
        for update in 0..UPDATES {
            let t_out = SimTime::from_secs(1000.0 + update as f64 * 10.0);
            service.ingest_reading(
                ubisense_reading("fig9-person", Point::new(100.0, 80.0), t_out),
                t_out,
            );
            let _ = remote_inbox.drain();
            let t_in = t_out + SimDuration::from_secs(5.0);
            let start = Instant::now();
            service.ingest_reading(
                ubisense_reading("fig9-person", Point::new(340.0, 15.0), t_in),
                t_in,
            );
            // Stop the clock on this update's notification from the
            // watched subscription. The 999 other triggers fire at both
            // positions too, and one of theirs still in flight from the
            // exit reading would stop it before the hop was made.
            loop {
                let n = remote_inbox
                    .recv_timeout(Duration::from_secs(5))
                    .expect("remote notification");
                if n.subscription == id && n.at == t_in {
                    break;
                }
            }
            samples.push(start.elapsed());
        }
        print!("  1000 triggers over TCP:");
        for s in &samples {
            print!(" {s:.1?}");
        }
        println!();
    }

    println!();
    println!("# shape checks (the paper's two claims)");
    // Claim 1: response time ~independent of programmed trigger count.
    let steady_mean = |col: &Vec<Duration>| -> f64 {
        let tail = &col[1..]; // skip the setup-dominated first update
        tail.iter().map(Duration::as_secs_f64).sum::<f64>() / tail.len() as f64
    };
    let means: Vec<f64> = table.iter().map(steady_mean).collect();
    let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = means.iter().cloned().fold(0.0, f64::max);
    println!(
        "steady-state mean response per curve: {:?} (max/min ratio {:.2}x; paper: ~flat)",
        means
            .iter()
            .map(|m| format!("{:.1}us", m * 1e6))
            .collect::<Vec<_>>(),
        hi / lo
    );
    // Claim 2: the first update is slower than the steady state.
    for (col, &n) in table.iter().zip(TRIGGER_COUNTS) {
        let first = col[0].as_secs_f64();
        let steady = steady_mean(col);
        println!(
            "{n:>5} triggers: first update {:.1}us vs steady {:.1}us ({:.2}x)",
            first * 1e6,
            steady * 1e6,
            first / steady
        );
    }
}
