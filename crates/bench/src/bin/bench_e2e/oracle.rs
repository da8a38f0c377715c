//! The slow, obviously-right reference every fast path is checked
//! against after the timed passes: per-item `FrozenModel::predict_feats`
//! over every unseen item and one full sort under `rank_cmp`. The
//! ranking reference shares no code with the rankers, heaps, kernels or
//! the index it checks; score identity is additionally held to the
//! per-item `TopNRanker::score`, the repository's bitwise contract.

use gmlfm_data::{Instance, Schema};
use gmlfm_serve::{rank_cmp, FrozenModel};
use gmlfm_service::{Catalog, ModelSnapshot, ScoreRequest};

/// `predict_pairwise` must agree with the decoupled `predict_feats`
/// within this absolute tolerance.
pub const PAIRWISE_TOLERANCE: f64 = 1e-9;

/// What a verification pass found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Replies (or reply slots) that disagreed with the reference.
    pub mismatches: u64,
    /// The workload's `quality_at_10`.
    pub quality_at_10: f64,
    /// Human-readable descriptions of the first few mismatches.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Records one disagreement (only the first few are described).
    pub fn mismatch(&mut self, note: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Records a disagreement unless `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.mismatch(note());
        }
    }
}

fn catalog_of(snap: &ModelSnapshot) -> &Catalog {
    snap.catalog.as_ref().expect("benchmark snapshots carry a catalog")
}

/// The reference whole-catalogue top-`n` for `user`: every item outside
/// the snapshot's seen set and `live`, scored one at a time, fully
/// sorted (score descending, ties by ascending item id), truncated.
pub fn top_n(snap: &ModelSnapshot, user: u32, n: usize, live: &[u32]) -> Vec<(u32, f64)> {
    let catalog = catalog_of(snap);
    let mut scored: Vec<(u32, f64)> = (0..catalog.n_items() as u32)
        .filter(|&item| !snap.seen.as_ref().is_some_and(|s| s.contains(user, item)) && !live.contains(&item))
        .map(|item| {
            let feats = catalog.feats(user, item).expect("panel user and item are in the catalog");
            (item, snap.frozen.predict_feats(&feats))
        })
        .collect();
    scored.sort_by(rank_cmp);
    scored.truncate(n);
    scored
}

/// Checks one ranking reply for `user`, item by item. Each score must be
/// **bitwise** the per-item ranker's (`TopNRanker::score`, the contract
/// every block, sharded, indexed and low-precision path is held to) and
/// within [`PAIRWISE_TOLERANCE`] of both `predict_feats` and the
/// pairwise reference loops on the spliced features — the ranker adds
/// context and item terms in its own order, so it is not bitwise
/// `predict_feats`.
pub fn check_reply(snap: &ModelSnapshot, user: u32, reply: &[(u32, f64)], verdict: &mut Verdict) {
    let catalog = catalog_of(snap);
    let Some(template) = catalog.template(user) else {
        verdict.mismatch(format!("user {user}: not in the catalog"));
        return;
    };
    let mut ranker = snap.frozen.ranker(template, catalog.item_slots());
    for &(item, score) in reply {
        let (Some(group), Some(feats)) = (catalog.item_features(item), catalog.feats(user, item)) else {
            verdict.mismatch(format!("user {user} item {item}: not in the catalog"));
            continue;
        };
        let per_item = ranker.score(group);
        verdict.check(score.to_bits() == per_item.to_bits(), || {
            format!(
                "user {user} item {item}: score {score:e} is not bitwise the per-item ranker's {per_item:e}"
            )
        });
        let want = snap.frozen.predict_feats(&feats);
        let pairwise = snap.frozen.predict_pairwise(&Instance::new(feats, 0.0));
        verdict.check((score - want).abs() <= PAIRWISE_TOLERANCE && (pairwise - want).abs() <= PAIRWISE_TOLERANCE, || {
            format!("user {user} item {item}: served {score:e}, predict_feats {want:e}, pairwise {pairwise:e}")
        });
    }
}

/// Whether two rankings agree: the same length, and position by
/// position the same item — or, where two scores tie to within
/// [`PAIRWISE_TOLERANCE`] and the paths' rounding may order them either
/// way, the same score.
pub fn same_ranking(got: &[(u32, f64)], want: &[(u32, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 || (g.1 - w.1).abs() <= PAIRWISE_TOLERANCE)
}

/// Checks one score of the scoring path (`execute_score`), which is
/// bitwise `predict_feats` of the resolved features.
pub fn check_feats_score(
    frozen: &FrozenModel,
    feats: &[u32],
    score: f64,
    verdict: &mut Verdict,
    what: impl Fn() -> String,
) {
    let want = frozen.predict_feats(feats);
    verdict.check(score.to_bits() == want.to_bits(), || {
        format!("{}: score {score:e} is not bitwise the model's {want:e}", what())
    });
    let pairwise = frozen.predict_pairwise(&Instance::new(feats.to_vec(), 0.0));
    verdict.check((pairwise - want).abs() <= PAIRWISE_TOLERANCE, || {
        format!("{}: pairwise reference {pairwise:e} disagrees with {want:e}", what())
    });
}

/// Items of `got` that also appear in `want` — recall@n numerator.
pub fn hits(got: &[(u32, f64)], want: &[(u32, f64)]) -> usize {
    got.iter().filter(|(item, _)| want.iter().any(|(w, _)| w == item)).count()
}

/// Resolves a `Pair` or `Cold` score request into feature indices the
/// long way round — catalog splice and a by-name schema walk — without
/// touching `exec::resolve_feats`, the code under test.
pub fn resolve(schema: &Schema, catalog: &Catalog, req: &ScoreRequest) -> Option<Vec<u32>> {
    match req {
        ScoreRequest::Pair { user, item } => catalog.feats(*user, *item),
        ScoreRequest::Cold { item, fields } => {
            let mut feats = catalog.item_features(*item)?.to_vec();
            for (name, value) in fields {
                let field = schema.fields().iter().position(|f| &f.name == name)?;
                feats.push(schema.feature_index(field, *value));
            }
            feats.sort_unstable();
            Some(feats)
        }
        ScoreRequest::Feats(feats) => Some(feats.clone()),
        ScoreRequest::Instance(inst) => Some(inst.feats.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::trace::Tracer;
    use gmlfm_service::TopNRequest;

    #[test]
    fn reference_top_n_matches_the_served_path_and_excludes_seen() {
        let serving = fixture::serving(&mut Tracer::off(), 2_000, false);
        let (_, snap) = serving.server.snapshot();
        let user = 5;
        let want = top_n(snap, user, 10, &[]);
        let got = serving.server.top_n(&TopNRequest::new(user, 10)).expect("panel user").value;
        assert!(same_ranking(&got, &want), "served {got:?} vs reference {want:?}");
        let seen = snap.seen.as_ref().expect("fixture has seen sets");
        assert!(!seen.items(user).is_empty());
        assert!(want.iter().all(|(item, _)| !seen.contains(user, *item)));
        let mut verdict = Verdict::default();
        check_reply(snap, user, &got, &mut verdict);
        assert_eq!(verdict.mismatches, 0, "{:?}", verdict.notes);
        // A live-overlay item leaves the reference ranking too.
        let dropped = want[0].0;
        assert!(top_n(snap, user, 10, &[dropped]).iter().all(|(item, _)| *item != dropped));
    }

    #[test]
    fn a_wrong_score_is_a_mismatch() {
        let serving = fixture::serving(&mut Tracer::off(), 500, false);
        let (_, snap) = serving.server.snapshot();
        let (item, score) = serving.server.top_n(&TopNRequest::new(1, 1)).expect("panel user").value[0];
        let mut verdict = Verdict::default();
        check_reply(snap, 1, &[(item, score)], &mut verdict);
        assert_eq!(verdict.mismatches, 0, "{:?}", verdict.notes);
        // One ulp off is caught by the bitwise check, 1e-6 off by both.
        check_reply(snap, 1, &[(item, f64::from_bits(score.to_bits() + 1))], &mut verdict);
        assert_eq!(verdict.mismatches, 1);
        check_reply(snap, 1, &[(item, score + 1e-6)], &mut verdict);
        assert_eq!(verdict.mismatches, 3);
        assert_eq!(hits(&[(1, 0.0), (2, 0.0)], &[(2, 9.0), (3, 9.0)]), 1);
    }

    #[test]
    fn rankings_agree_up_to_swapped_ties() {
        let want = [(4, 0.9), (7, 0.5), (9, 0.5 - 1e-12)];
        assert!(same_ranking(&want, &want));
        assert!(same_ranking(&[(4, 0.9), (9, 0.5 - 1e-12), (7, 0.5)], &want), "a tie may land either way");
        assert!(!same_ranking(&[(4, 0.9), (7, 0.5), (8, 0.4)], &want));
        assert!(!same_ranking(&want[..2], &want));
    }

    #[test]
    fn cold_requests_resolve_like_the_served_path() {
        let serving = fixture::serving(&mut Tracer::off(), 500, false);
        let (_, snap) = serving.server.snapshot();
        let catalog = snap.catalog.as_ref().expect("catalog");
        for req in [ScoreRequest::cold(17, &[("segment", 3)]), ScoreRequest::pair(9, 17)] {
            let feats = resolve(&snap.schema, catalog, &req).expect("valid request");
            let served = serving.server.score(&req).expect("valid request").value;
            assert_eq!(served.to_bits(), snap.frozen.predict_feats(&feats).to_bits());
        }
        assert!(resolve(&snap.schema, catalog, &ScoreRequest::cold(17, &[("nope", 0)])).is_none());
    }
}
