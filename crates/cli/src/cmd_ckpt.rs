//! `pipefisher ckpt` — checkpoint-file utilities.
//!
//! `ckpt inspect <PATH>` validates a checkpoint (magic, version, table and
//! per-section CRCs) and prints its section table plus the decoded training
//! metadata. `PATH` may be a `.pfck` file or a checkpoint directory, in
//! which case the newest generation is inspected.

use pipefisher_ckpt::{latest_generation, list_generations, read_snapshot};
use pipefisher_lm::TrainCheckpoint;
use std::path::PathBuf;

pub fn run(args: &[String]) -> Result<(), String> {
    crate::args::check_flags("ckpt", args, &[])?;
    match args.first().map(String::as_str) {
        Some("inspect") => inspect(args.get(1).ok_or("missing <PATH> to inspect")?),
        other => Err(format!("unknown ckpt subcommand {other:?} (inspect)")),
    }
}

fn inspect(raw: &str) -> Result<(), String> {
    let mut path = PathBuf::from(raw);
    if path.is_dir() {
        let gens = list_generations(&path).map_err(|e| e.to_string())?;
        println!(
            "directory {} — {} generation(s): {:?}",
            path.display(),
            gens.len(),
            gens
        );
        path = latest_generation(&path)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no checkpoints in {}", path.display()))?;
    }
    let snap = read_snapshot(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let infos = snap.section_infos();
    println!(
        "{} — valid (format v1, {} sections, all CRCs match)",
        path.display(),
        infos.len()
    );
    println!("{:<12} {:>12}  {:>10}", "SECTION", "BYTES", "CRC32");
    for info in &infos {
        println!("{:<12} {:>12}  {:>#10x}", info.name, info.bytes, info.crc32);
    }
    match TrainCheckpoint::from_snapshot(&snap) {
        Ok(tc) => {
            println!(
                "training state: resumes at step {}, optimizer {}, rng {:016x?}",
                tc.next_step, tc.optimizer_label, tc.rng
            );
        }
        Err(e) => println!("not a training checkpoint ({e})"),
    }
    Ok(())
}
