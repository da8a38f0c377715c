//! `repro`: regenerates every table and figure of the GML-FM paper on the
//! synthetic substrate.
//!
//! ```text
//! repro <command> [--scale F] [--k N] [--epochs N] [--seed N] [--out DIR] [--full]
//!
//! commands:
//!   table2       dataset statistics
//!   table3       rating-prediction RMSE grid
//!   table4       top-n HR@10/NDCG@10 grid
//!   table5       GML-FM ablations (weight/M, #layers, distances)
//!   table6       Mercari attribute-subset study
//!   fig3         HR@10 vs embedding size sweep (--full extends to k=512)
//!   fig4         cold-start: GML-FM vs MAMO-lite over warm/cold quadrants
//!   fig5, fig6   t-SNE case studies (two most active users)
//!   efficiency   naive O(k²n²) vs efficient O(k²n) timing sweep
//!   ext-bpr      extension: GML-FM with the pairwise BPR objective
//!   all          everything above
//! ```
//!
//! Every run is deterministic in `--seed`. CSV artifacts land in `--out`
//! (default `results/`).
#![forbid(unsafe_code)]
// Fig. 4's warm-item set answers membership only; nothing iterates it into output.
#![allow(clippy::disallowed_types)]

mod datasets;
mod efficiency;
mod ext_bpr;
mod fig3;
mod fig4;
mod fig56;
mod paper;
mod runner;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;

use runner::ExpConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: repro <table2|table3|table4|table5|table6|fig3|fig4|fig5|fig6|efficiency|ext-bpr|all> [flags]");
        eprintln!("flags: --scale F (default 1.0) --k N (16) --epochs N (12) --seed N (2023) --out DIR (results) --full");
        std::process::exit(2);
    };

    let mut cfg = ExpConfig::default();
    let mut full = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = flag_value(&args, &mut i, "--scale");
            }
            "--k" => {
                cfg.k = flag_value(&args, &mut i, "--k");
            }
            "--epochs" => {
                cfg.epochs = flag_value(&args, &mut i, "--epochs");
            }
            "--seed" => {
                cfg.seed = flag_value(&args, &mut i, "--seed");
            }
            "--out" => {
                i += 1;
                cfg.out_dir = args.get(i).unwrap_or_else(|| die("--out needs a value")).into();
            }
            "--full" => full = true,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let started = std::time::Instant::now();
    match command.as_str() {
        "table2" => table2::run(&cfg),
        "table3" => table3::run(&cfg),
        "table4" => table4::run(&cfg),
        "table5" => table5::run(&cfg),
        "table6" => table6::run(&cfg),
        "fig3" => fig3::run(&cfg, full),
        "fig4" => fig4::run(&cfg),
        "fig5" => fig56::run(&cfg, 0),
        "fig6" => fig56::run(&cfg, 1),
        "efficiency" => efficiency::run(&cfg),
        "ext-bpr" => ext_bpr::run(&cfg),
        "all" => {
            table2::run(&cfg);
            table3::run(&cfg);
            table4::run(&cfg);
            table5::run(&cfg);
            table6::run(&cfg);
            fig3::run(&cfg, full);
            fig4::run(&cfg);
            fig56::run(&cfg, 0);
            fig56::run(&cfg, 1);
            efficiency::run(&cfg);
            ext_bpr::run(&cfg);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[{command}] finished in {:.1}s; artifacts in {}",
        started.elapsed().as_secs_f64(),
        cfg.out_dir.display()
    );
}

fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, name: &str) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{name} needs a valid value")))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
