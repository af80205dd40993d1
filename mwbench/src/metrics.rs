//! The benchmark's metric names, as `BENCHMARK.json` lists them.

/// An end-to-end metric: what an application using the middleware sees.
/// `bound` is the share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "response_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "response_p95_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_readings_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.generate_ns_per_reading", "ns"),
    ("sim.generator_lag_p99_us", "us"),
    ("sensors.translate_ns_p50", "ns"),
    ("sensors.translate_ns_p99", "ns"),
    ("sensors.translate_calls", "count"),
    ("sensors.admit_ns_p50", "ns"),
    ("sensors.rejected_ratio", "ratio"),
    ("db.insert_ns_p50", "ns"),
    ("db.revoke_ns_p50", "ns"),
    ("db.readings_live", "count"),
    ("fusion.fuse_ns_p50", "ns"),
    ("fusion.fuse_ns_p99", "ns"),
    ("fusion.fuse_calls", "count"),
    ("fusion.evidence_per_fuse_mean", "count"),
    ("fusion.lattice_regions_mean", "count"),
    ("fusion.region_prob_ns_p50", "ns"),
    ("fusion.cache_hit_ratio", "ratio"),
    ("core.ingest_call_ns_p50", "ns"),
    ("core.ingest_call_ns_p99", "ns"),
    ("core.ingest_ns_per_reading", "ns"),
    ("core.norules_ns_per_reading", "ns"),
    ("core.rules_cost_ns_per_reading", "ns"),
    ("core.rules_candidates_per_selection", "count"),
    ("core.rules_atoms_per_fuse", "count"),
    ("core.rules_skipped_ratio", "ratio"),
    ("core.rules_sharing_ratio", "ratio"),
    ("core.fanout_per_reading_mean", "count"),
    ("core.fanout_per_reading_p99", "count"),
    ("core.allocs_per_reading", "count"),
    ("core.alloc_bytes_per_reading", "B"),
    ("core.shard_contention", "count"),
    ("core.bytes_per_object", "B"),
    ("core.rule_register_ns_per_rule", "ns"),
    ("core.locate_ns_p50", "ns"),
    ("core.locate_ns_p99", "ns"),
    ("core.region_prob_ns_p50", "ns"),
    ("core.objects_in_region_us_p50", "us"),
    ("core.relation_ns_p50", "ns"),
    ("core.rule_churn_us_p50", "us"),
    ("bus.local_publish_ns_p50", "ns"),
    ("bus.frame_encode_ns_p50", "ns"),
    ("bus.frame_decode_ns_p50", "ns"),
    ("bus.frame_bytes_mean", "B"),
    ("bus.remote_hop_us_p50", "us"),
    ("bus.remote_hop_us_p99", "us"),
    ("bus.frames_published", "count"),
    ("bus.frames_dropped", "count"),
    ("bus.client_gaps", "count"),
    ("bus.client_frames_lost", "count"),
    ("bus.rpc_overhead_us_p50", "us"),
    ("bus.ladder_p99_us_16k", "us"),
    ("bus.ladder_loss_ratio_32k", "ratio"),
    ("obs.ingest_overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;

    /// `BENCHMARK.json` is written by hand; it must name exactly the
    /// workloads and metrics the binary prints, with the same units and
    /// bounds.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let entries = json.matches("{\"name\":").count();
        assert_eq!(
            entries,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())),
                "{}",
                w.name()
            );
        }
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, better, m.bound
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(json.contains(&entry), "{entry}");
        }
    }
}
