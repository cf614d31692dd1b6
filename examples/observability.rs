//! Observability walk-through and acceptance check for the `obs` layer.
//!
//! Three parts, each printed to stdout:
//! 1. A full simulation run (clustering → initialization → training →
//!    measurement) with the counter deltas it produced.
//! 2. The consistency layer under the simulation loop, proving the deployed
//!    cost model: **exactly one index execution per query** — drilling and
//!    the ISOMER constraint targets are answered from the result stream.
//! 3. When `STH_TRACE` points to a file, the emitted event log is read back
//!    and validated: every line parses, and the events cover clustering,
//!    drilling, merging, IPF sweeps and index probes.
//!
//! ```text
//! cargo run --release --example observability
//! STH_TRACE=/tmp/sth-trace.jsonl STH_AUDIT=1 cargo run --release --example observability
//! ```

use sth::eval::{evaluate_self_tuning, run_simulation, DatasetSpec, ExperimentCtx, RunConfig, Variant};
use sth::platform::obs;
use sth::prelude::*;

fn main() {
    // Counters on regardless of the environment; tracing/audit stay
    // env-controlled so the two invocations above behave differently.
    obs::force_metrics(true);

    // Part 1: one full simulation, its counters attributed via provenance.
    let ctx = ExperimentCtx {
        scale: 0.05,
        train: 80,
        sim: 80,
        buckets: vec![20],
        cluster_sample: None,
        seed: 0xB5,
    };
    let prep = ctx.prepare(DatasetSpec::Cross2d);
    let cfg = RunConfig { train: ctx.train, sim: ctx.sim, ..RunConfig::paper(20, ctx.seed) };
    let out = run_simulation(&prep, &Variant::initialized_default(), &cfg);
    println!(
        "run: variant={} buckets={} nae={:.3} (train {:.2}s, sim {:.2}s)",
        out.variant, out.buckets, out.nae, out.provenance.train_secs, out.provenance.sim_secs
    );
    println!("counters attributed to this run:");
    for c in obs::Counter::ALL {
        let v = out.provenance.counters.get(c);
        if v > 0 {
            println!("  {:>24}  {v}", c.name());
        }
    }
    let run_counters = out.provenance.counters.clone();
    assert!(run_counters.get(obs::Counter::ClusterRounds) > 0, "no clustering observed");
    assert!(run_counters.get(obs::Counter::Drills) > 0, "no drilling observed");
    assert!(run_counters.get(obs::Counter::Merges) > 0, "no merging observed");
    assert!(run_counters.get(obs::Counter::IndexProbes) > 0, "no index probes observed");

    // Part 2: the consistency layer + the one-probe-per-query proof.
    let data = &*prep.data;
    let queries = 60;
    let wl = WorkloadSpec { count: queries, ..WorkloadSpec::paper(0.01, 31) }
        .generate(data.domain(), None);
    let mut est = ConsistentStHoles::new(
        StHoles::with_total(data.domain().clone(), 24, data.len() as f64),
        ConsistencyConfig::default(),
    );
    let before = obs::snapshot();
    let mae = evaluate_self_tuning(&mut est, &wl, &*prep.index, true);
    let d = obs::snapshot().delta(&before);
    println!(
        "\nconsistency: {queries} queries, mae {:.1}, {} IPF sweeps ({} inner iterations), \
         mean |violation| {:.4}",
        mae,
        d.get(obs::Counter::IpfSweeps),
        d.get(obs::Counter::IpfInnerIters),
        est.mean_violation()
    );
    assert!(d.get(obs::Counter::IpfSweeps) > 0, "no IPF sweeps observed");
    let probes = d.get(obs::Counter::IndexProbes);
    assert_eq!(
        probes, queries as u64,
        "expected exactly one index execution per query, got {probes} for {queries}"
    );
    println!(
        "probe proof: {probes} index executions for {queries} queries \
         ({} candidate counts answered from result streams)",
        d.get(obs::Counter::ResultRecounts)
    );
    obs::event(
        "probe_proof",
        &[
            ("queries", obs::FieldValue::Int(queries as u64)),
            ("index_probes", obs::FieldValue::Int(probes)),
            ("obs", obs::FieldValue::Raw(&d.to_json())),
        ],
    );

    // Part 3: read the event log back and validate it.
    match std::env::var("STH_TRACE").ok().filter(|v| v != "1" && v != "0" && !v.is_empty()) {
        Some(path) => {
            let log = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read STH_TRACE log {path}: {e}"));
            let mut kinds = std::collections::BTreeSet::new();
            let mut lines = 0usize;
            for line in log.lines() {
                lines += 1;
                assert!(
                    line.starts_with('{') && line.ends_with('}'),
                    "unbalanced event line: {line}"
                );
                let ev = obs::field_str(line, "ev")
                    .unwrap_or_else(|| panic!("event line without an \"ev\" kind: {line}"));
                assert!(
                    obs::field_num(line, "t_us").is_some(),
                    "event line without a timestamp: {line}"
                );
                kinds.insert(ev);
            }
            for required in ["span", "run", "probe_proof"] {
                assert!(kinds.contains(required), "event log is missing \"{required}\" events");
            }
            // The run event embeds the run's counter snapshot; together with
            // the probe_proof event the log covers every subsystem.
            let run_line = log
                .lines()
                .find(|l| obs::field_str(l, "ev").as_deref() == Some("run"))
                .expect("no run event");
            for key in ["drills", "merges", "index_probes", "cluster_rounds"] {
                assert!(
                    obs::field_u64(run_line, key).is_some_and(|v| v > 0),
                    "run event does not attest {key}: {run_line}"
                );
            }
            let proof_line = log
                .lines()
                .find(|l| obs::field_str(l, "ev").as_deref() == Some("probe_proof"))
                .expect("no probe_proof event");
            assert!(
                obs::field_u64(proof_line, "ipf_sweeps").is_some_and(|v| v > 0),
                "probe_proof event does not attest IPF sweeps: {proof_line}"
            );
            println!(
                "\ntrace log {path}: {lines} events, all parseable; kinds: {}",
                kinds.iter().cloned().collect::<Vec<_>>().join(", ")
            );
        }
        None => println!(
            "\n(set STH_TRACE=<file> to emit and validate the JSON event log; \
             STH_AUDIT=1 re-checks invariants after every refinement)"
        ),
    }
    println!("observability: OK");
}
