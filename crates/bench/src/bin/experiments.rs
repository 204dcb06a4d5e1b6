//! Experiment regenerator CLI.
//!
//! ```text
//! experiments list              # show every experiment id
//! experiments all [--quick]     # regenerate everything
//! experiments <id> [<id>...]    # regenerate specific tables/figures
//! experiments --out DIR ...     # change the results directory
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bench::experiments::{registry, Ctx};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results");
    let mut quick = false;

    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            eprintln!("--out requires a directory");
            return ExitCode::FAILURE;
        }
        out_dir = PathBuf::from(args.remove(pos + 1));
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--quick") {
        quick = true;
        args.remove(pos);
    }

    let reg = registry();
    if args.is_empty() || args[0] == "list" {
        println!("available experiments (see DESIGN.md §3):");
        for e in &reg {
            println!("  {:20} {}", e.id, e.description);
        }
        println!("  {:20} run every experiment", "all");
        return ExitCode::SUCCESS;
    }

    let ctx = Ctx { out_dir, quick };
    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        reg.iter().map(|e| e.id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    for id in selected {
        let Some(exp) = reg.iter().find(|e| e.id == id) else {
            eprintln!("unknown experiment `{id}` — run `experiments list`");
            return ExitCode::FAILURE;
        };
        println!("\n### {} — {}\n", exp.id, exp.description);
        let started = std::time::Instant::now();
        if let Err(e) = (exp.run)(&ctx) {
            eprintln!("experiment {id} failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "[{} done in {:.1}s]",
            exp.id,
            started.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
