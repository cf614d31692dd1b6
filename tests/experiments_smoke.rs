//! Smoke tests over the experiment harness: every experiment id resolves,
//! runs at a micro scale, and produces a sanely-shaped table.

use sth::eval::experiments::{run_by_id, ALL_IDS};
use sth::eval::ExperimentCtx;

fn micro() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.01,
        train: 30,
        sim: 30,
        buckets: vec![15],
        cluster_sample: Some(1_500),
        seed: 0x5107,
    }
}

#[test]
fn fast_experiments_produce_tables() {
    // The statically cheap experiments plus one accuracy figure.
    for id in ["table1", "table3", "fig9", "fig10", "fig11"] {
        let t = run_by_id(id, &micro()).unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(!t.rows.is_empty(), "{id} produced an empty table");
        assert!(!t.headers.is_empty());
        for row in &t.rows {
            assert_eq!(row.len(), t.headers.len(), "{id} row arity");
        }
        // Every table renders and CSV-exports.
        assert!(format!("{t}").contains("=="));
        if t.headers.len() > 1 {
            assert!(t.to_csv().contains(','));
        }
    }
}

#[test]
fn sky_experiments_run_at_micro_scale() {
    for id in ["table2", "table4", "fig14"] {
        let t = run_by_id(id, &micro()).unwrap();
        assert!(!t.rows.is_empty(), "{id} empty");
    }
}

#[test]
fn robustness_experiments_run_at_micro_scale() {
    for id in ["fig16", "fig17", "survival", "sensitivity", "lemma2", "lemma3"] {
        let t = run_by_id(id, &micro()).unwrap();
        assert!(!t.rows.is_empty(), "{id} empty");
    }
}

#[test]
fn dimensionality_experiment_runs_at_micro_scale() {
    let t = run_by_id("fig15", &micro()).unwrap();
    // Three datasets × one bucket count.
    assert_eq!(t.rows.len(), 3);
    let datasets: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(datasets, vec!["Cross3d", "Cross4d", "Cross5d"]);
}

#[test]
fn id_list_is_complete() {
    assert_eq!(ALL_IDS.len(), 18);
    for id in ALL_IDS {
        // Static tables run here; everything else is covered above.
        if *id == "table1" || *id == "table3" {
            assert!(run_by_id(id, &micro()).is_some());
        }
    }
}

/// The NAE cells of the micro accuracy runs, as printed. Refine-path
/// optimisations must be bit-identical, so these never move; timing columns
/// (`clustering_s`, `sim_s`) are not pinned.
#[test]
fn micro_accuracy_cells_are_pinned() {
    let nae_cells = |id: &str, cols: &[usize]| -> Vec<Vec<String>> {
        let t = run_by_id(id, &micro()).unwrap();
        t.rows.iter().map(|r| cols.iter().map(|&c| r[c].clone()).collect()).collect()
    };
    assert_eq!(nae_cells("fig11", &[0, 1, 2]), [["15", "0.252", "0.718"]]);
    assert_eq!(nae_cells("fig12", &[0, 1, 2]), [["15", "0.483", "0.874"]]);
    assert_eq!(nae_cells("fig13", &[0, 1, 2, 3]), [["15", "0.362", "0.490", "0.906"]]);

    let t = run_by_id("table2", &micro()).unwrap();
    let col = t.headers.iter().position(|h| h == "error(NAE)").unwrap();
    let errors: Vec<&str> = t.rows.iter().map(|r| r[col].as_str()).collect();
    assert_eq!(errors, ["0.400", "0.403", "0.605", "0.286"]);
    assert_eq!(t.notes[0], "uninitialized STHoles reference error: 0.886");
}
