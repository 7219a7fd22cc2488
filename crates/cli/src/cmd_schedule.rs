//! `pipefisher schedule` — render a pipeline schedule.

use crate::args;
use pipefisher_sim::{simulate, KindCost};

pub fn run(argv: &[String]) -> Result<(), String> {
    args::check_flags(
        "schedule",
        argv,
        &[
            "--recompute",
            "--csv",
            "--virtual V",
            "--steps K",
            "--trace-out FILE",
        ],
    )?;
    let d = args::int(argv, 1, "D")?;
    let n = args::int(argv, 2, "N_micro")?;
    let recompute = args::has_flag(argv, "--recompute");
    let csv = args::has_flag(argv, "--csv");

    let graph = args::graph(argv)?;
    let tl = simulate(&graph, &KindCost::standard(1.0, 2.0)).map_err(|e| e.to_string())?;
    if let Some(path) = args::flag_value(argv, "--trace-out") {
        // Simulated units are abstract; render one unit as 1 ms.
        let json = serde_json::to_string_pretty(&tl.chrome_trace_json(1000.0)).expect("json");
        args::write_file(path, &json)?;
        eprintln!("wrote Chrome trace to {path} (open in ui.perfetto.dev)");
    }
    if csv {
        print!("{}", tl.to_csv());
        return Ok(());
    }
    println!(
        "{} — D={d}, N_micro={n}{} (T_f=1, T_b=2)",
        graph.scheme_name(),
        if recompute { ", recompute" } else { "" }
    );
    print!("{}", tl.render_ascii(100));
    println!(
        "makespan {:.1}, utilization {:.1}%, total bubble {:.1}",
        tl.makespan(),
        tl.utilization() * 100.0,
        tl.total_bubble(tl.makespan())
    );
    Ok(())
}
