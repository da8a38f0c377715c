//! CLI for the workspace correctness tooling.
//!
//! ```text
//! cargo run -p gmlfm-analyze -- check              # lints + UNSAFETY.md freshness (CI gate)
//! cargo run -p gmlfm-analyze -- lint               # lints only
//! cargo run -p gmlfm-analyze -- unsafety [--write] # print or write UNSAFETY.md
//! ```
//!
//! Exit code 0 = clean; 1 = findings / stale inventory; 2 = usage error.
#![forbid(unsafe_code)]

use gmlfm_analyze::{inventory, run_lints, unsafe_inventory, workspace_root};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("check") => check(),
        Some("lint") => lint(),
        Some("unsafety") => unsafety(args.iter().any(|a| a == "--write")),
        _ => {
            eprintln!("usage: gmlfm-analyze <check|lint|unsafety [--write]>");
            ExitCode::from(2)
        }
    }
}

/// Prints findings in `file:line: Lx: message` form; returns the count.
fn report_lints() -> usize {
    let files = run_lints(&workspace_root());
    let mut count = 0usize;
    for file in &files {
        for finding in &file.report.findings {
            println!("{}:{}: {}: {}", file.rel, finding.line, finding.lint, finding.message);
            count += 1;
        }
    }
    count
}

fn lint() -> ExitCode {
    let count = report_lints();
    if count == 0 {
        println!("lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("lint: {count} finding(s)");
        ExitCode::FAILURE
    }
}

fn unsafety(write: bool) -> ExitCode {
    let root = workspace_root();
    let files = run_lints(&root);
    let rendered = inventory::render(&unsafe_inventory(&files));
    if write {
        let path = inventory::unsafety_path(&root);
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
        ExitCode::SUCCESS
    } else {
        print!("{rendered}");
        ExitCode::SUCCESS
    }
}

/// The CI gate: lints, then inventory freshness. Runs both even when
/// the first fails, so CI output shows everything.
fn check() -> ExitCode {
    let root = workspace_root();
    let mut failed = false;

    let findings = report_lints();
    if findings > 0 {
        println!("check: lints — {findings} finding(s)");
        failed = true;
    } else {
        println!("check: lints — clean");
    }

    let files = run_lints(&root);
    let rendered = inventory::render(&unsafe_inventory(&files));
    match inventory::check_fresh(&root, &rendered) {
        Ok(()) => println!("check: UNSAFETY.md — fresh"),
        Err(e) => {
            println!("check: UNSAFETY.md — {e}");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
