//! Metric names, units and directions — the single list `BENCHMARK.json` is
//! generated from (`--manifest`) and every run's output is checked against.

use crate::api::Prim;
use crate::workloads::Workload;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound: None }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 10;

/// The end-to-end metrics, the same on every workload.
///
/// `failed_share` is not listed: the driver's contract carries failures in
/// the `attempted` / `failed` fields of every result line and asks for
/// metrics that are never 0. The simulated metrics are exact for a given
/// seed (two runs must agree bit for bit, which `aa.sh` checks); their
/// bounds only have to absorb the seed-to-seed spread of the generated
/// graphs.
pub fn end_to_end() -> Vec<MetricDef> {
    let e = |name: &str, unit, bound| MetricDef { bound: Some(bound), ..def(name, unit, LOWER) };
    vec![
        e("setup_s", "s", 0.25),
        e("pass_wall_s", "s", 0.25),
        e("sim_ms", "ms", 0.08),
        e("wire_bytes", "B", 0.08),
        e("sim_peak_mem_mb", "MB", 0.03),
        e("host_peak_rss_mb", "MB", 0.25),
    ]
}

/// The per-layer metrics, grouped by the repo module that owns them.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        // mgpu-gen
        def("gen.wall_s", "s", LOWER),
        def("gen.edges", "count", LOWER),
        // mgpu-graph
        def("graph.build_wall_s", "s", LOWER),
        def("graph.build_medges_per_s", "Medges/s", HIGHER),
        def("graph.edges", "count", LOWER),
        def("graph.csr_bytes", "B", LOWER),
        // mgpu-partition
        def("partition.assign_wall_s", "s", LOWER),
        def("partition.build_wall_s", "s", LOWER),
        def("partition.csc_wall_s", "s", LOWER),
        def("partition.border_vertices", "count", LOWER),
        def("partition.topology_bytes_max", "B", LOWER),
        // mgpu-core::enactor / executor
        def("enactor.bind_wall_ms", "ms", LOWER),
        def("enactor.enact_wall_ms", "ms", LOWER),
        def("enactor.harvest_wall_ms", "ms", LOWER),
        def("enactor.supersteps", "count", LOWER),
        def("enactor.wall_us_per_superstep", "us", LOWER),
        def("enactor.kernel_launches", "count", LOWER),
        def("enactor.host_mteps", "MTEPS", HIGHER),
    ];
    // mgpu-primitives
    for p in Prim::ALL {
        let p = p.name();
        m.push(def(&format!("prim.{p}.enact_wall_ms"), "ms", LOWER));
        m.push(def(&format!("prim.{p}.sim_ms"), "ms", LOWER));
        m.push(def(&format!("prim.{p}.supersteps"), "count", LOWER));
        m.push(def(&format!("prim.{p}.overhead_x"), "x", LOWER));
    }
    m.extend([
        // mgpu-core::ops / frontier
        def("ops.w_items", "count", LOWER),
        def("ops.w_sim_us", "us", LOWER),
        def("ops.advance_fused_medges_per_s", "Medges/s", HIGHER),
        // mgpu-core::comm
        def("comm.c_items", "count", LOWER),
        def("comm.c_sim_us", "us", LOWER),
        def("comm.h_sim_us", "us", LOWER),
        def("comm.messages", "count", LOWER),
        def("comm.vertices_sent", "count", LOWER),
        def("comm.bytes_per_vertex", "B", LOWER),
        def("comm.suppressed_share", "ratio", HIGHER),
        def("comm.enc_list", "count", LOWER),
        def("comm.enc_bitmap", "count", HIGHER),
        def("comm.enc_delta", "count", HIGHER),
        def("comm.collective_stages", "count", LOWER),
        def("comm.split_package_mverts_per_s", "Mverts/s", HIGHER),
        def("comm.encode_auto_mverts_per_s", "Mverts/s", HIGHER),
        def("comm.decode_mverts_per_s", "Mverts/s", HIGHER),
        def("wire.default.wall_ms", "ms", LOWER),
        def("wire.reduced.wall_ms", "ms", LOWER),
        def("wire.default.bytes", "B", LOWER),
        def("wire.reduced.bytes", "B", LOWER),
        def("wire.default.sim_ms", "ms", LOWER),
        def("wire.reduced.sim_ms", "ms", LOWER),
        // vgpu
        def("vgpu.sync_sim_us", "us", LOWER),
        def("vgpu.barrier_wait_sim_us", "us", LOWER),
        def("vgpu.pool_reallocs", "count", LOWER),
        def("vgpu.realloc_copied_bytes", "B", LOWER),
        def("vgpu.barrier_rtt_us", "us", LOWER),
        def("vgpu.kernel_launch_ns", "ns", LOWER),
        // mgpu-core::service
        def("service.plan_wall_us", "us", LOWER),
        def("service.run_wall_ms", "ms", LOWER),
        def("service.waves", "count", LOWER),
        def("service.queued", "count", LOWER),
        def("service.overlap_x", "x", HIGHER),
        def("service.queries_per_s", "1/s", HIGHER),
        // mgpu-core::trace
        def("trace.events", "count", LOWER),
        def("trace.overhead_share", "ratio", LOWER),
        def("trace.fold_wall_ms", "ms", LOWER),
        def("trace.reconciled", "ratio", HIGHER),
        // mgpu-primitives::reference
        def("reference.wall_ms", "ms", LOWER),
    ]);
    m
}

/// `BENCHMARK.json`, generated so the file and the harness cannot drift.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        Workload::ALL
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        end_to_end()
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better,
                    m.bound.expect("end-to-end metrics carry a bound")
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        per_layer()
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(s: &str, extra: &str) -> bool {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert_eq!(layer.len(), 86);
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(m.name.len() <= 64 && charset_ok(&m.name, "_.-"), "name {}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m.unit.len() <= 16 && charset_ok(m.unit, "_/%.-"), "unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
        }
        for m in &e2e {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap().bound;
        assert!(e2e.iter().all(|m| m.bound <= setup), "setup_s carries the largest bound");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n') && !w.why().contains('"'));
            assert!(seen.insert(w.name().to_string()), "workload name reused: {}", w.name());
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(on_disk, manifest_json(), "regenerate with `run.sh --manifest`");
    }
}
