//! The `STH_SERVE_*` environment gates, exercised end to end. This file
//! holds exactly one test because it mutates process environment
//! variables: a second `#[test]` here would race it on the shared
//! environment, and the library tests run in a different process.

use std::sync::Arc;
use std::time::Duration;

use sth_eval::{serve, Registry, ServeConfig, TenantKey, TenantRuntime, Trainer};
use sth_serve::EngineConfig;

#[test]
fn serve_env_gates_flow_into_the_engine() {
    // Gate parsing first, while the environment is still clean.
    let clean = EngineConfig::from_env();
    assert_eq!(clean.deadline, None, "deadline must default off");

    std::env::set_var("STH_SERVE_DEADLINE_US", "1");
    std::env::set_var("STH_SERVE_COALESCE", "0"); // floors to 1
    let cfg = EngineConfig::from_env();
    assert_eq!(cfg.deadline, Some(Duration::from_micros(1)));
    assert_eq!(cfg.coalesce, 1, "STH_SERVE_COALESCE floors at 1");

    std::env::remove_var("STH_SERVE_COALESCE");

    std::env::set_var("STH_SERVE_DEADLINE_US", "0");
    assert_eq!(EngineConfig::from_env().deadline, None, "0 disables the deadline");

    // Now a hopeless 1µs deadline through the full serve loop: whether or
    // not any particular request misses it, every offered query must be
    // accounted answered-or-shed, and shedding is never silent — the
    // per-reader tallies, the engine stats, and the metrics agree.
    std::env::set_var("STH_SERVE_DEADLINE_US", "1");
    let data = sth_data::cross::CrossSpec::cross2d().scaled(0.05).generate();
    let wl = sth_query::WorkloadSpec::paper(0.01, 97).generate(data.domain(), None);
    let (train, serve_wl) = wl.split_train(wl.len() / 2);
    let runtime = TenantRuntime {
        key: TenantKey::new("deadline", vec![0, 1]),
        trainer: Trainer::Volatile(sth_core::build_uninitialized(&data, 64)),
        train,
        serve: serve_wl,
        counter: Arc::new(sth_index::KdCountTree::build(&data)),
    };
    let cfg = ServeConfig { readers: 4, batch: 16, republish_every: 10, trainer_workers: 1 };
    let report = serve(&mut Registry::new(), &mut [runtime], &cfg).expect("volatile serve");
    std::env::remove_var("STH_SERVE_DEADLINE_US");

    // The closed-loop streams wrap their workload until the trainer is
    // done, so the offered total is time-dependent — but the split of it
    // must balance: reader tallies and engine stats agree on sheds, and
    // nothing vanished between them.
    assert!(
        report.answered() + report.shed() > 0,
        "the streams offered something, answered or shed"
    );
    assert_eq!(
        report.shed(),
        report.engine.shed_queries,
        "per-tenant tallies and engine stats agree on sheds"
    );
    assert_eq!(
        report.readers.iter().map(|r| r.shed).sum::<u64>(),
        report.shed(),
        "reader tallies agree on sheds"
    );
    if report.engine.shed_requests == 0 {
        assert_eq!(report.shed(), 0);
    } else {
        assert!(report.shed() > 0, "shed requests imply shed queries");
    }
    // Whatever was shed, what *was* answered came from real snapshots.
    for r in &report.readers {
        assert!(!r.epochs.is_empty() || r.answered == 0);
    }
}
