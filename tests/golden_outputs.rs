//! Golden-file regression tests: every reproduction artefact rendered by
//! `corridor_bench::render` must match the committed reference output
//! under `docs/results/` **byte for byte**.
//!
//! These are the same strings the `fig*`/`table*`/`headline`/`isd_sweep`
//! binaries print, so paper fidelity is enforced by `cargo test` instead
//! of by eyeballing diffs. If a model change legitimately moves a number,
//! regenerate the references with `make results` and commit the diff —
//! the failure message says exactly that.

use corridor_bench::render;

/// Compares a rendered artefact against its committed reference.
fn assert_golden(name: &str, rendered: String, golden: &str) {
    if rendered == golden {
        return;
    }
    // locate the first differing line for a readable failure
    let mut detail = String::new();
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        if got != want {
            detail = format!(
                "first differing line {}:\n  golden: {want}\n  now:    {got}",
                i + 1
            );
            break;
        }
    }
    if detail.is_empty() {
        detail = format!(
            "line count changed: golden {} lines, now {} lines",
            golden.lines().count(),
            rendered.lines().count()
        );
    }
    panic!(
        "{name} drifted from docs/results/{name}.txt\n{detail}\n\
         If the change is intentional, regenerate the references with \
         `make results` and commit the diff."
    );
}

macro_rules! golden_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            assert_golden(
                stringify!($name),
                render::$name(),
                include_str!(concat!("../docs/results/", stringify!($name), ".txt")),
            );
        }
    };
}

golden_test!(headline);
golden_test!(table1);
golden_test!(table2);
golden_test!(table3);
golden_test!(table4);
golden_test!(fig3);
golden_test!(fig4);
golden_test!(isd_sweep);
golden_test!(fronthaul);
golden_test!(poisson_stats);
golden_test!(mc_smoke);
golden_test!(optimize_smoke);
golden_test!(network_smoke);
