//! The machine-readable side of L1: rendering the workspace's `unsafe`
//! inventory as `UNSAFETY.md`, and checking the committed file against
//! the tree.
//!
//! The inventory is regenerated with
//! `cargo run -p gmlfm-analyze -- unsafety --write` and checked for
//! freshness (exact string equality) by the `check` subcommand, so a PR
//! that adds, moves, or re-justifies an `unsafe` site must also commit
//! the updated audit table — the document can't silently rot.

use crate::lints::UnsafeSite;
use std::path::{Path, PathBuf};

/// The `unsafe` sites of one source file, with its repo-relative path.
#[derive(Debug, Clone)]
pub struct FileInventory {
    /// Forward-slash, repo-relative path (`crates/net/tests/decode_allocations.rs`).
    pub path: String,
    pub sites: Vec<UnsafeSite>,
}

/// Where the inventory lives.
pub fn unsafety_path(root: &Path) -> PathBuf {
    root.join("UNSAFETY.md")
}

/// Renders the full `UNSAFETY.md` document. Deterministic: callers pass
/// files in scan order (sorted by path) and sites in source order.
pub fn render(files: &[FileInventory]) -> String {
    let total: usize = files.iter().map(|f| f.sites.len()).sum();
    let mut out = String::new();
    out.push_str("# Unsafe inventory\n\n");
    out.push_str(
        "Every `unsafe` site in the workspace, with its `// SAFETY:` justification.\n\
         Generated by `cargo run -p gmlfm-analyze -- unsafety --write` and checked\n\
         for freshness by `cargo run -p gmlfm-analyze -- check` (a gating CI job):\n\
         adding, moving, or re-justifying an `unsafe` site requires regenerating\n\
         this file in the same change.\n\n",
    );
    out.push_str(&format!("Sites: **{total}**\n\n"));
    out.push_str("| # | Site | Kind | Justification |\n");
    out.push_str("|---|------|------|---------------|\n");
    let mut n = 0usize;
    for file in files {
        for site in &file.sites {
            n += 1;
            let justification = if site.justification.is_empty() {
                "**UNDOCUMENTED** (L1 violation)".to_string()
            } else {
                site.justification.replace('|', "\\|")
            };
            out.push_str(&format!(
                "| {n} | `{}:{}` | {} | {justification} |\n",
                file.path, site.line, site.kind
            ));
        }
    }
    out
}

/// Compares the committed inventory against the rendered one. `Ok(())`
/// when identical; `Err` carries a one-line description otherwise.
pub fn check_fresh(root: &Path, rendered: &str) -> Result<(), String> {
    let path = unsafety_path(root);
    match std::fs::read_to_string(&path) {
        Ok(committed) if committed == rendered => Ok(()),
        Ok(_) => Err(format!(
            "{} is stale — regenerate with `cargo run -p gmlfm-analyze -- unsafety --write`",
            path.display()
        )),
        Err(_) => Err(format!(
            "{} is missing — generate with `cargo run -p gmlfm-analyze -- unsafety --write`",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_counts_sites() {
        let files = vec![FileInventory {
            path: "crates/x/src/lib.rs".into(),
            sites: vec![
                UnsafeSite { line: 3, kind: "block", justification: "ptr valid".into() },
                UnsafeSite { line: 9, kind: "impl", justification: String::new() },
            ],
        }];
        let a = render(&files);
        let b = render(&files);
        assert_eq!(a, b);
        assert!(a.contains("Sites: **2**"));
        assert!(a.contains("`crates/x/src/lib.rs:3` | block | ptr valid"));
        assert!(a.contains("UNDOCUMENTED"));
    }

    #[test]
    fn pipes_in_justifications_do_not_break_the_table() {
        let files = vec![FileInventory {
            path: "a.rs".into(),
            sites: vec![UnsafeSite { line: 1, kind: "block", justification: "a | b".into() }],
        }];
        assert!(render(&files).contains("a \\| b"));
    }
}
