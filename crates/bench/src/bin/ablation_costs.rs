//! Cost-model robustness: the reproduction's conclusions should not
//! hinge on exact values of the overhead constants. This ablation
//! scales each key constant ×½ and ×2 and re-checks the two headline
//! shapes on sumEuler (8 cores):
//!
//!   1. the Fig. 1 ladder stays monotone (plain ≥ +area ≥ +sync ≥ +steal), and
//!   2. Eden stays competitive with the best GpH (within 25 %).
//!
//! ```text
//! cargo run -p rph-bench --release --bin ablation_costs [--quick]
//! ```

use rph::prelude::*;
use rph::sim::Costs;
use rph_bench::*;
use rph_workloads::SumEuler;

fn main() {
    check_args(&[]);
    let n = if quick() { 2_000 } else { 8_000 };
    let caps = INTEL_CORES;
    let w = SumEuler::new(n);
    let expected = w.expected();
    println!("Cost-model robustness — sumEuler [1..{n}], {caps} cores\n");

    type Knob = (&'static str, fn(&mut Costs, f64));
    let knobs: [Knob; 6] = [
        ("gc_fixed", |c, f| c.gc_fixed = scale(c.gc_fixed, f)),
        ("gc_sync_per_cap_original", |c, f| {
            c.gc_sync_per_cap_original = scale(c.gc_sync_per_cap_original, f)
        }),
        ("steal_attempt", |c, f| {
            c.steal_attempt = scale(c.steal_attempt, f)
        }),
        ("ctx_switch", |c, f| c.ctx_switch = scale(c.ctx_switch, f)),
        ("msg_latency", |c, f| {
            c.msg_latency = scale(c.msg_latency, f)
        }),
        ("thread_create", |c, f| {
            c.thread_create = scale(c.thread_create, f)
        }),
    ];

    let mut table = TextTable::new(&[
        "perturbation",
        "plain",
        "+area",
        "+sync",
        "+steal",
        "Eden",
        "ladder monotone",
        "Eden within 25% of best GpH",
    ]);
    let mut all_hold = true;
    let mut scenarios: Vec<(String, Costs)> = vec![("baseline".into(), Costs::default())];
    for (name, apply) in &knobs {
        for factor in [0.5, 2.0] {
            let mut c = Costs::default();
            apply(&mut c, factor);
            scenarios.push((format!("{name} ×{factor}"), c));
        }
    }

    for (label, costs) in scenarios {
        let mut times = Vec::new();
        for (_, mut cfg) in GphConfig::fig1_ladder(caps) {
            cfg.costs = costs.clone();
            let m = w.run_gph(cfg.without_trace()).expect("gph");
            check(&m, expected, &label);
            times.push(m.elapsed);
        }
        let mut ec = EdenConfig::new(caps).without_trace();
        ec.costs = costs.clone();
        let me = w.run_eden(ec).expect("eden");
        check(&me, expected, &label);

        let monotone = times.windows(2).all(|p| p[1] <= p[0] + p[0] / 50); // 2% slack
        let best_gph = *times.iter().min().unwrap();
        let eden_ok = (me.elapsed as f64) <= best_gph as f64 * 1.25;
        all_hold &= monotone && eden_ok;
        table.row(&[
            label,
            secs(times[0]),
            secs(times[1]),
            secs(times[2]),
            secs(times[3]),
            secs(me.elapsed),
            yes(monotone).into(),
            yes(eden_ok).into(),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    println!(
        "all shape checks hold under every perturbation: {}",
        yes(all_hold)
    );
    write_artifact("ablation_costs.csv", &table.to_csv());
}

fn scale(x: u64, f: f64) -> u64 {
    (x as f64 * f) as u64
}

fn yes(b: bool) -> &'static str {
    if b {
        "YES"
    } else {
        "NO"
    }
}
