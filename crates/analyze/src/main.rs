//! CLI for the workspace correctness tooling.
//!
//! ```text
//! cargo run -p gmlfm-analyze -- check              # lints + UNSAFETY.md freshness + interleave suite (CI gate)
//! cargo run -p gmlfm-analyze -- lint               # lints only
//! cargo run -p gmlfm-analyze -- unsafety [--write] # print or write UNSAFETY.md
//! cargo run -p gmlfm-analyze -- interleave         # model-check the unsafe protocol
//! ```
//!
//! Exit code 0 = clean; 1 = findings / stale inventory / checker
//! failure; 2 = usage error.

use gmlfm_analyze::sched::Verdict;
use gmlfm_analyze::{
    inventory, run_interleave_suite, run_lints, unsafe_inventory, workspace_root, CI_SCHEDULE_BUDGET,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("check") => check(),
        Some("lint") => lint(),
        Some("unsafety") => unsafety(args.iter().any(|a| a == "--write")),
        Some("interleave") => interleave(),
        _ => {
            eprintln!("usage: gmlfm-analyze <check|lint|unsafety [--write]|interleave>");
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

/// Runs the interleaving suite and prints one line per protocol;
/// returns the number of miscalibrated outcomes.
fn report_interleave() -> usize {
    let mut bad = 0usize;
    for check in run_interleave_suite(CI_SCHEDULE_BUDGET) {
        let status = match (&check.verdict, check.ok()) {
            (Verdict::Pass(stats), true) => {
                format!("ok (pass: {} schedules, {} steps)", stats.schedules, stats.steps)
            }
            (Verdict::Fail { schedule, error }, true) => {
                format!("ok (found as required: {error}; schedule {schedule:?})")
            }
            (Verdict::Pass(_), false) => "MISCALIBRATED: planted bug not found".to_string(),
            (Verdict::Fail { schedule, error }, false) => {
                format!("FAILED: {error}; schedule {schedule:?}")
            }
            (Verdict::BudgetExceeded { budget }, _) => {
                format!("BUDGET EXCEEDED at {budget} schedules — shrink the model or raise the budget")
            }
        };
        if !check.ok() {
            bad += 1;
        }
        println!("interleave: {} — {status}", check.name);
    }
    bad
}

fn interleave() -> ExitCode {
    if report_interleave() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The CI gate: lints, inventory freshness, interleave suite. Runs all
/// three even when an early one fails, so CI output shows everything.
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

    let bad = report_interleave();
    if bad > 0 {
        println!("check: interleave — {bad} protocol(s) off expectation");
        failed = true;
    } else {
        println!("check: interleave — all protocols as expected");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
