//! Scheduling ablations: fixed-chunk dealing vs lazy range splitting
//! on sumEuler (chunk_size ∈ {1, 10, paper-default}),
//! persistent-pool vs respawn-per-wave on APSP, and randomized vs
//! round-robin victim selection — pick one table (or all) with
//! `--ablation`.
//!
//! With `--quick` the inputs are tiny but still drive every new code
//! path — batch steals, range splits, idle parking, pool reuse — which
//! is what the CI smoke step runs on every push.
//!
//! ```text
//! cargo run -p rph-bench --release --bin granularity_ablation \
//!     [--quick] [--ablation granularity|pool-reuse|steal-policy|all]
//! ```

use rph_bench::granularity::Ablation;
use rph_bench::{check_args, granularity, quick, write_artifact};

fn main() {
    let args = check_args(&["--ablation <v>"]);
    let ablation = args.value("--ablation").map_or(Ablation::All, |v| {
        Ablation::parse(v).unwrap_or_else(|| {
            eprintln!("unknown --ablation value {v:?}; expected granularity, pool-reuse, steal-policy or all");
            std::process::exit(2);
        })
    });
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Scheduling ablations on this host ({cores} core{})\n",
        if cores == 1 { "" } else { "s" }
    );
    if cores < 4 {
        println!(
            "note: fewer than 4 cores available — fixed-vs-lazy gaps shrink\n\
             when there is no real parallelism to schedule\n"
        );
    }
    let csv = granularity::run(quick(), ablation);
    write_artifact("granularity_ablation.csv", &csv);
}
