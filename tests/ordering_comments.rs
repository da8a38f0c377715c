//! The atomic-ordering house rule, which clippy has no lint for: in the
//! files that share state through atomics, every `Ordering::` use names
//! its pairing in an `ORDERING:` comment, on its own line or in the
//! contiguous `//` block above it. Each file is read as text up to its
//! first `#[cfg(test)]`; test code is exempt.

use std::path::Path;

const FILES: [&str; 4] = [
    "crates/service/src/server.rs",
    "crates/net/src/server.rs",
    "crates/net/src/frame.rs",
    "crates/online/src/trainer.rs",
];

/// The number of `Ordering::` uses in `rel`, and `rel:line` for each one
/// without its `ORDERING:` comment.
fn check(rel: &str) -> (usize, Vec<String>) {
    let src = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"));
    let lines: Vec<&str> = src.lines().take_while(|l| !l.contains("#[cfg(test)]")).collect();
    let is_comment = |l: &&str| l.trim_start().starts_with("//");
    let (mut uses, mut missing) = (0, Vec::new());
    for (i, line) in lines.iter().enumerate() {
        if !line.contains("Ordering::") || is_comment(line) {
            continue;
        }
        uses += 1;
        let mut above = lines[..i].iter().rev().copied().take_while(is_comment);
        if !line.contains("ORDERING:") && !above.any(|l| l.contains("ORDERING:")) {
            missing.push(format!("{rel}:{}", i + 1));
        }
    }
    (uses, missing)
}

#[test]
fn every_atomic_ordering_names_its_pairing() {
    let mut missing = Vec::new();
    for rel in FILES {
        let (uses, mut m) = check(rel);
        assert!(uses > 0, "{rel} has no `Ordering::` use left; drop it from FILES");
        missing.append(&mut m);
    }
    assert!(missing.is_empty(), "`Ordering::` without an `ORDERING:` comment at:\n{}", missing.join("\n"));
}
