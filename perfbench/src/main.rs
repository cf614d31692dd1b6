//! The repository benchmark: three workloads that each stress a different
//! layer, measured end to end untraced and layer by layer traced.
//!
//! ```text
//! perfbench --workload <learn_sky|serve_sky|learn_serve> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>] [--rustc <v>] [--commit <c>]
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). A full report, and the spans of a
//! traced run, are written under `--out`. See `README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

mod common;
mod learn_serve;
mod learn_sky;
mod report;
mod serve_sky;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Seeds used while the benchmark was developed and tuned; every other
/// seed is held out, and reports say which kind a run used.
pub fn is_dev_seed(seed: u64) -> bool {
    matches!(seed, 1..=12 | 42 | 101..=110 | 201..=210 | 301..=310)
}

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub out: PathBuf,
    pub rustc: String,
    pub commit: String,
}

impl Ctx {
    /// How long the run measures.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        traced: false,
        out: PathBuf::from(".bench_out"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => ctx.out = PathBuf::from(value),
            "--rustc" => ctx.rustc = value.clone(),
            "--commit" => ctx.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if ctx.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(ctx)
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (outcome, meaning) = match ctx.workload.as_str() {
        "learn_sky" => (learn_sky::run(&ctx), learn_sky::MEANING),
        "serve_sky" => (serve_sky::run(&ctx), serve_sky::MEANING),
        "learn_serve" => (learn_serve::run(&ctx), learn_serve::MEANING),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (learn_sky, serve_sky, learn_serve)");
            std::process::exit(2);
        }
    };
    if let Err(e) = report::emit(&ctx, meaning, outcome) {
        eprintln!("perfbench: writing the report failed: {e}");
        std::process::exit(1);
    }
}
