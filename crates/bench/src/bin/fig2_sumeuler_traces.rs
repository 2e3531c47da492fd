//! Fig. 2: "Runtime traces of sumEuler [1..15000]: GpH versions and
//! Eden" — per-capability activity diagrams for the five versions,
//! including the sequential check computation "obvious at the end of
//! each trace".
//!
//! ```text
//! cargo run -p rph-bench --release --bin fig2_sumeuler_traces [--quick] [--color]
//! ```

use rph::prelude::*;
use rph_bench::*;
use rph_workloads::SumEuler;

fn main() {
    let color = check_args(&["--color"]).has("--color");
    let n = sum_euler_n();
    let caps = INTEL_CORES;
    let w = SumEuler::new(n).with_check();
    let expected = w.expected();
    println!("Fig. 2 — sumEuler [1..{n}] runtime traces, {caps} capabilities");
    println!("(every version re-checks the result sequentially at the end)\n");

    let opts = RenderOptions {
        width: 110,
        color,
        legend: false,
    };
    let mut csv_all = String::from("version,cap,start,end,state\n");
    for (tag, version) in ["a", "b", "c", "d", "e"].iter().zip(five_versions(caps)) {
        let (elapsed, tracer) = match &version {
            Version::Gph(_, cfg) => {
                let m = w.run_gph(cfg.clone()).expect("gph run");
                check(&m, expected, version.label());
                (m.elapsed, m.tracer)
            }
            Version::Eden(_, cfg) => {
                let m = w.run_eden(cfg.clone()).expect("eden run");
                check(&m, expected, version.label());
                (m.elapsed, m.tracer)
            }
        };
        let tl = Timeline::from_tracer(&tracer);
        tl.check_well_formed().expect("trace invariants");
        println!("{tag}) {} — {}", version.label(), secs(elapsed));
        print!("{}", render_timeline(&tl, &opts));
        let st = TraceStats::from_parts(&tracer, &tl);
        println!(
            "   running {:>5.1}%  runnable {:>4.1}%  gc {:>4.1}%  idle {:>4.1}%  blocked {:>4.1}%\n",
            st.fraction(rph::trace::State::Running) * 100.0,
            st.fraction(rph::trace::State::Runnable) * 100.0,
            st.fraction(rph::trace::State::Gc) * 100.0,
            st.fraction(rph::trace::State::Idle) * 100.0,
            st.fraction(rph::trace::State::Blocked) * 100.0,
        );
        for line in rph::trace::render_csv(&tl).lines().skip(1) {
            csv_all.push_str(tag);
            csv_all.push(',');
            csv_all.push_str(line);
            csv_all.push('\n');
        }
        write_artifact(
            &format!("fig2_trace_{tag}.svg"),
            &rph::trace::render_svg(&tl, 900, 16),
        );
    }
    println!("legend: #=running ~=runnable x=blocked .=idle G=gc -=descheduled");
    write_artifact("fig2_sumeuler_traces.csv", &csv_all);
}
