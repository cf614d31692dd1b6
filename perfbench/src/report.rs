//! Metric catalogue, per-layer figures derived from a trace, the machine
//! fingerprint, and the report writers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::common::Outcome;
use crate::stats::quantile_us;
use crate::trace::Trace;
use crate::Ctx;

/// End-to-end metrics: name, unit. Every workload reports each of them;
/// what each one measures on a workload is that workload's `MEANING`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goodput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("nae", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics: name, unit. Every traced run reports each of them;
/// a layer that does no work on a workload reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("index.build_s", "s"),
    ("index.collect_us", "us"),
    ("index.collect_s", "s"),
    ("index.rows_per_query", "count"),
    ("index.self_s", "s"),
    ("mineclus.cluster_s", "s"),
    ("mineclus.clusters", "count"),
    ("core.init_s", "s"),
    ("core.fed", "count"),
    ("sthole.estimate_us", "us"),
    ("sthole.drill_us_p50", "us"),
    ("sthole.drill_us_p99", "us"),
    ("sthole.drill_s", "s"),
    ("sthole.merge_us_p50", "us"),
    ("sthole.merge_us_p99", "us"),
    ("sthole.merge_s", "s"),
    ("sthole.merge_share", "frac"),
    ("sthole.freeze_us", "us"),
    ("sthole.buckets", "count"),
    ("sthole.batch_ns_per_query", "ns"),
    ("sthole.self_s", "s"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.queries_per_service", "count"),
    ("serve.coalesced_frac", "frac"),
    ("serve.busy_frac", "frac"),
    ("serve.wait_us", "us"),
    ("serve.pins", "count"),
    ("serve.cpu_us_per_query", "us"),
    ("serve.read_qps", "1/s"),
    ("serve.latency_p99_us", "us"),
    ("serve.latency_p999_us", "us"),
    ("loadgen.late_us_p50", "us"),
    ("loadgen.late_us_p99", "us"),
    ("loadgen.starved_frac", "frac"),
    ("store.append_us", "us"),
    ("store.flush_ms", "ms"),
    ("store.flushes", "count"),
    ("store.open_ms", "ms"),
    ("store.bytes_per_query", "B"),
    ("store.self_s", "s"),
    ("snap.publish_us", "us"),
    ("snap.publishes", "count"),
    ("snap.self_s", "s"),
    ("loop.self_s", "s"),
    ("feedback.p99_us", "us"),
    ("feedback.accounted_frac", "frac"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// Per-layer figures of a traced feedback loop (`learn_sky`'s loop or
/// `learn_serve`'s trainer) whose wall time was `loop_s`.
pub fn refine_layers(l: &mut BTreeMap<&'static str, f64>, trace: &Trace, loop_s: f64) {
    let collect = trace.stats("index.collect");
    let drill = trace.stats("sthole.drill");
    let merge = trace.stats("sthole.merge");
    let estimate = trace.stats("sthole.estimate");
    let s = |ns: u64| ns as f64 / 1e9;
    l.insert("index.collect_us", quantile_us(&collect.samples, 0.5));
    l.insert("index.collect_s", s(collect.total_ns));
    l.insert("sthole.drill_us_p50", quantile_us(&drill.samples, 0.5));
    l.insert("sthole.drill_us_p99", quantile_us(&drill.samples, 0.99));
    l.insert("sthole.drill_s", s(drill.total_ns));
    l.insert("sthole.merge_us_p50", quantile_us(&merge.samples, 0.5));
    l.insert("sthole.merge_us_p99", quantile_us(&merge.samples, 0.99));
    l.insert("sthole.merge_s", s(merge.total_ns));
    l.insert("sthole.merge_share", s(merge.total_ns) / loop_s);
    l.insert("sthole.estimate_us", quantile_us(&estimate.samples, 0.5));
    let accounted = collect.total_ns + drill.total_ns + merge.total_ns + estimate.total_ns;
    l.insert("feedback.accounted_frac", s(accounted) / loop_s);
}

/// Self time per layer and the span count.
fn self_times(l: &mut BTreeMap<&'static str, f64>, trace: &Trace) {
    for (layer, secs) in trace.layer_self_s() {
        let name = match layer {
            "index" => "index.self_s",
            "sthole" => "sthole.self_s",
            "store" => "store.self_s",
            "snap" => "snap.self_s",
            "loop" => "loop.self_s",
            other => panic!("span layer {other} has no self-time metric"),
        };
        l.insert(name, secs);
    }
    l.insert("trace.spans", trace.span_count() as f64);
}

/// The SIMD tier the CPU offers, as the batch kernel detects it.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "AVX-512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "AVX2";
        }
    }
    "Base"
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON object from keys and already-encoded values.
fn json_map<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_json(catalogue: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    json_map(catalogue.iter().map(|(name, unit)| {
        let v = values.get(name).copied().unwrap_or(0.0);
        (
            *name,
            format!(
                "{{\"value\": {}, \"unit\": {}}}",
                json_num(v),
                json_str(unit)
            ),
        )
    }))
}

/// Prints the human-readable report, writes the JSON report (and the
/// spans of a traced run) under the output directory, and prints the
/// result line last.
pub fn emit(ctx: &Ctx, meaning: &[(&str, &str)], mut out: Outcome) -> std::io::Result<()> {
    if let Some(trace) = &out.trace {
        self_times(&mut out.layers, trace);
    }
    for name in out.layers.keys() {
        assert!(
            LAYERS.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not catalogued"
        );
    }
    out.layers.insert("proc.cpu_s", crate::stats::cpu_s());
    out.e2e.insert("peak_rss_mb", crate::stats::peak_rss_mb());
    out.e2e.insert(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let held_out = !crate::is_dev_seed(ctx.seed);
    let fingerprint = [
        ("nproc", nproc.to_string()),
        ("simd", simd_tier().to_string()),
        ("rustc", ctx.rustc.clone()),
        ("commit", ctx.commit.clone()),
    ];

    println!(
        "# perfbench workload={} seed={} seed_held_out={} seconds={} trace={}",
        ctx.workload, ctx.seed, held_out, ctx.seconds, ctx.traced as u8
    );
    println!(
        "# machine: {}",
        fingerprint
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (name, ok) in &out.checks {
        println!("# check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for (k, v) in &out.info {
        println!("# {k}: {v}");
    }
    if ctx.traced {
        println!("# end-to-end figures of a traced run include the tracing overhead");
    }
    for (name, unit) in E2E {
        let what = meaning
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, m)| m);
        println!(
            "# {name} = {:.6} {unit}  ({what})",
            out.e2e.get(name).copied().unwrap_or(0.0)
        );
    }
    if ctx.traced {
        for (name, unit) in LAYERS {
            println!(
                "# {name} = {:.6} {unit}",
                out.layers.get(name).copied().unwrap_or(0.0)
            );
        }
    }

    let correct = out.correct();
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"workload\": {}, \"seed\": {}, \"seed_held_out\": {}, \"seconds\": {}, \"trace\": {}, ",
        json_str(&ctx.workload),
        ctx.seed,
        held_out,
        ctx.seconds,
        ctx.traced as u8
    );
    let machine = json_map(fingerprint.iter().map(|(k, v)| (*k, json_str(v))));
    let checks = json_map(
        out.checks
            .iter()
            .map(|(n, ok)| (n.as_str(), ok.to_string())),
    );
    let info = json_map(out.info.iter().map(|(k, v)| (*k, json_str(v))));
    let _ = write!(
        report,
        "\"machine\": {machine}, \"checks\": {checks}, \"info\": {info}, "
    );
    let _ = write!(
        report,
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(E2E, &out.e2e),
        if ctx.traced { metrics_json(LAYERS, &out.layers) } else { "{}".into() }
    );
    std::fs::create_dir_all(&ctx.out)?;
    let stem = format!(
        "{}-seed{}-trace{}-{}",
        ctx.workload,
        ctx.seed,
        ctx.traced as u8,
        std::process::id()
    );
    std::fs::write(ctx.out.join(format!("{stem}.json")), report + "\n")?;
    if let Some(trace) = &out.trace {
        std::fs::write(
            ctx.out.join(format!("{stem}.spans.json")),
            trace.spans_json() + "\n",
        )?;
    }

    let metrics = if ctx.traced {
        metrics_json(LAYERS, &out.layers)
    } else {
        metrics_json(E2E, &out.e2e)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    Ok(())
}
