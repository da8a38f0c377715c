//! `gmlfm-analyze` — the workspace's correctness tooling: a token-level
//! lint suite for the invariants `rustc` and clippy don't know about,
//! plus the committed inventory of every `unsafe` site. Std-only by
//! design: the analyzer gates CI, so it builds before — and
//! independently of — everything it checks.
//!
//! Four lints (see [`lints`] for the rules, [`scope_for`] for which
//! files each applies to):
//!
//! * **L1 undocumented-unsafe** — every `unsafe` block/fn/impl needs a
//!   `// SAFETY:` comment; the sites feed the committed `UNSAFETY.md`
//!   audit table ([`inventory`]).
//! * **L2 panic-freedom** — no `unwrap`/`expect`/`panic!`-family in the
//!   serving hot paths (`gmlfm-service`, `gmlfm-serve`'s scoring/
//!   retrieval files, `gmlfm-net`'s frame/wire codecs and connection
//!   loops, the JSON reader and decoders every wire byte and artifact
//!   goes through, and `gmlfm-online`'s ingest + trainer loop): a malformed
//!   request — or a hostile byte stream, or a degenerate event batch —
//!   must surface as a typed error, never tear down a worker.
//! * **L3 determinism** — no `HashMap`/`HashSet` where iteration order
//!   reaches deterministic outputs; `available_parallelism()` only
//!   inside the one cached accessor, so shard boundaries can't move
//!   mid-computation.
//! * **L4 atomic-ordering discipline** — every `Ordering::…` in the
//!   concurrency core carries a `// ORDERING:` justification naming its
//!   pairing.
#![forbid(unsafe_code)]

pub mod inventory;
pub mod lexer;
pub mod lints;

use lints::{FileReport, LintScope};
use std::path::{Path, PathBuf};

/// The workspace root, resolved from this crate's own manifest dir
/// (`crates/analyze` → up two levels). Keeps the tool runnable from any
/// CWD via `cargo run -p gmlfm-analyze`.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest).to_path_buf()
}

/// All first-party `.rs` files, sorted by path for deterministic output.
/// Scans `src/`, `crates/`, `examples/`, `tests/`; `vendor/` (offline
/// dependency stand-ins, not ours to lint) and `target/` are outside the
/// roots, and hidden directories are skipped — except
/// [`VENDORED_FIRST_PARTY`].
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["src", "crates", "examples", "tests"] {
        collect_rs(&root.join(top), &mut out);
    }
    out.extend(
        VENDORED_FIRST_PARTY
            .iter()
            .map(|rel| root.join(rel))
            .filter(|path| path.is_file()),
    );
    out.sort();
    out
}

/// The files under `vendor/` this repository wrote rather than stood in
/// for: the JSON reader and the one decoding trait's impls. Every wire
/// byte and every artifact member is decoded by them before `gmlfm-net`
/// or `gmlfm-engine` sees a value, so they are linted as serving hot path.
pub const VENDORED_FIRST_PARTY: [&str; 2] = ["vendor/serde/src/json.rs", "vendor/serde/src/lib.rs"];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `gmlfm-serve` files on the request scoring/retrieval hot path (its
/// offline freezing half is allowed to be assertive about model shape).
const SERVE_HOT_PATH: [&str; 6] = [
    "crates/serve/src/frozen.rs",
    "crates/serve/src/rank.rs",
    "crates/serve/src/topn.rs",
    "crates/serve/src/index.rs",
    "crates/serve/src/kernel.rs",
    "crates/serve/src/lowp.rs",
];

/// `gmlfm-net` files on the serving hot path: the frame codec, the
/// wire codec, and the connection/accept loops. A hostile byte stream
/// or a doomed socket must surface as a typed error or a clean close —
/// a panic here tears down a live connection handler. (The client
/// runs on the caller's side of the wire and may be assertive about
/// misuse.)
const NET_HOT_PATH: [&str; 3] =
    ["crates/net/src/frame.rs", "crates/net/src/wire.rs", "crates/net/src/server.rs"];

/// `gmlfm-online` files on the serving hot path: the ingest endpoint
/// (validation + overlay fold + bounded log) runs inside the request
/// path, and the trainer loop must survive any event stream — a panic
/// there silently kills the retrain thread and the loop goes stale.
const ONLINE_HOT_PATH: [&str; 3] =
    ["crates/online/src/handle.rs", "crates/online/src/log.rs", "crates/online/src/trainer.rs"];

/// The one accessor allowed to call `available_parallelism()` (it
/// caches).
const AVAILABLE_PARALLELISM_ALLOWLIST: [&str; 1] = ["crates/par/src/lib.rs"];

/// Which lints apply to a file, from its repo-relative forward-slash
/// path. L1 (undocumented unsafe) always applies and is not listed here.
pub fn scope_for(rel: &str) -> LintScope {
    LintScope {
        panic_freedom: rel.starts_with("crates/service/src/")
            || SERVE_HOT_PATH.contains(&rel)
            || NET_HOT_PATH.contains(&rel)
            || VENDORED_FIRST_PARTY.contains(&rel)
            || ONLINE_HOT_PATH.contains(&rel),
        no_hash_collections: rel.starts_with("crates/serve/src/")
            || rel.starts_with("crates/online/src/")
            || rel == "crates/par/src/lib.rs"
            || rel == "crates/service/src/exec.rs",
        no_available_parallelism: !AVAILABLE_PARALLELISM_ALLOWLIST.contains(&rel),
        ordering_justification: rel == "crates/service/src/server.rs"
            || rel == "crates/net/src/server.rs"
            || rel == "crates/net/src/frame.rs"
            || rel == "crates/online/src/trainer.rs",
    }
}

/// One linted file: repo-relative path plus its report.
#[derive(Debug)]
pub struct LintedFile {
    pub rel: String,
    pub report: FileReport,
}

/// Lints every workspace source file under its path-resolved scope.
/// Unreadable files are skipped (they can't be part of the build).
pub fn run_lints(root: &Path) -> Vec<LintedFile> {
    workspace_sources(root)
        .iter()
        .filter_map(|path| {
            let rel = path.strip_prefix(root).ok()?.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(path).ok()?;
            let report = lints::lint_file(&src, scope_for(&rel));
            Some(LintedFile { rel, report })
        })
        .collect()
}

/// Projects the lint run down to the `unsafe` inventory (files with at
/// least one site, in scan order).
pub fn unsafe_inventory(files: &[LintedFile]) -> Vec<inventory::FileInventory> {
    files
        .iter()
        .filter(|f| !f.report.unsafe_sites.is_empty())
        .map(|f| inventory::FileInventory { path: f.rel.clone(), sites: f.report.unsafe_sites.clone() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_resolution_matches_the_documented_map() {
        assert!(scope_for("crates/service/src/exec.rs").panic_freedom);
        assert!(scope_for("crates/serve/src/rank.rs").panic_freedom);
        assert!(!scope_for("crates/serve/src/freeze.rs").panic_freedom);
        assert!(!scope_for("crates/train/src/lib.rs").panic_freedom);
        assert!(scope_for("crates/serve/src/topn.rs").no_hash_collections);
        assert!(!scope_for("crates/engine/src/pipeline.rs").no_hash_collections);
        assert!(!scope_for("crates/par/src/lib.rs").no_available_parallelism);
        assert!(scope_for("crates/service/src/server.rs").no_available_parallelism);
        assert!(scope_for("crates/service/src/server.rs").ordering_justification);
        assert!(!scope_for("crates/serve/src/frozen.rs").ordering_justification);
        // The network serving hot path: codec + connection loops are
        // panic-free; the files with atomics justify every ordering.
        assert!(scope_for("crates/net/src/frame.rs").panic_freedom);
        assert!(scope_for("crates/net/src/wire.rs").panic_freedom);
        assert!(scope_for("crates/net/src/server.rs").panic_freedom);
        assert!(!scope_for("crates/net/src/client.rs").panic_freedom);
        assert!(scope_for("crates/net/src/server.rs").ordering_justification);
        assert!(scope_for("crates/net/src/frame.rs").ordering_justification);
        assert!(!scope_for("crates/net/src/wire.rs").ordering_justification);
        // The JSON reader and the decoding trait's impls under the wire
        // codec and the artifact loader are hot path too.
        assert!(scope_for("vendor/serde/src/json.rs").panic_freedom);
        assert!(scope_for("vendor/serde/src/lib.rs").panic_freedom);
        assert!(!scope_for("vendor/serde/src/json.rs").no_hash_collections);
        // The online loop's hot path: ingest + trainer are panic-free,
        // the whole crate is hash-free (BTreeSet for the dedup ids),
        // and the trainer justifies every atomic ordering.
        assert!(scope_for("crates/online/src/handle.rs").panic_freedom);
        assert!(scope_for("crates/online/src/log.rs").panic_freedom);
        assert!(scope_for("crates/online/src/trainer.rs").panic_freedom);
        assert!(!scope_for("crates/online/src/gate.rs").panic_freedom);
        assert!(scope_for("crates/online/src/trainer.rs").no_hash_collections);
        assert!(scope_for("crates/online/src/log.rs").no_hash_collections);
        assert!(scope_for("crates/online/src/trainer.rs").ordering_justification);
        assert!(!scope_for("crates/online/src/handle.rs").ordering_justification);
    }

    #[test]
    fn workspace_scan_finds_this_file_and_skips_vendor() {
        let root = workspace_root();
        let files = workspace_sources(&root);
        assert!(
            files.iter().any(|p| p.ends_with("crates/analyze/src/lib.rs")),
            "scan must include first-party sources"
        );
        assert!(
            !files.iter().any(|p| p.to_string_lossy().contains("/vendor/")
                && !VENDORED_FIRST_PARTY.iter().any(|rel| p.ends_with(rel))),
            "scan must not descend into vendor/"
        );
        assert!(files.iter().any(|p| p.ends_with("vendor/serde/src/json.rs")), "the JSON reader is ours");
        assert!(files.iter().any(|p| p.ends_with("vendor/serde/src/lib.rs")), "so are its decoders");
        // Deterministic order.
        let again = workspace_sources(&root);
        assert_eq!(files, again);
    }

    #[test]
    fn the_tree_is_clean_under_the_suite() {
        // The repo's own gate, as a unit test: no lint findings anywhere.
        let files = run_lints(&workspace_root());
        let findings: Vec<String> = files
            .iter()
            .flat_map(|f| {
                f.report
                    .findings
                    .iter()
                    .map(move |d| format!("{}:{}: {}: {}", f.rel, d.line, d.lint, d.message))
            })
            .collect();
        assert!(findings.is_empty(), "lint findings:\n{}", findings.join("\n"));
    }
}
