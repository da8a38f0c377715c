//! The artifact format, pinned by bytes. `fixtures/gml_fm_md_i8.json` is
//! a hand-built v4 artifact (`common::hand_built_artifact(4, 6)`: metric
//! GML-FM with a catalogue, seen sets, an IVF index and `i8` precision),
//! written by the build that still decoded artifacts through a JSON tree.
//! It must load and write back byte for byte, and its v1–v3 shapes must
//! load with the members they lack absent.

mod common;

use common::tree_artifact::TreeArtifact;
use gmlfm_engine::{Artifact, Engine, Precision, TopNRequest};

const GOLDEN: &str = include_str!("fixtures/gml_fm_md_i8.json");

/// `text` without its last member, which is `name`.
fn without_last(text: &str, name: &str) -> String {
    let at = text.rfind(&format!(",\"{name}\":")).expect("the member is there");
    format!("{}}}", &text[..at])
}

#[test]
fn the_committed_artifact_writes_back_byte_for_byte() {
    let artifact = Artifact::from_json(GOLDEN).expect("the fixture loads");
    assert_eq!(artifact.to_json(), GOLDEN);
    assert_eq!(TreeArtifact::from_json(GOLDEN).expect("the oracle loads it too").to_json(), GOLDEN);
    // This build writes the same bytes for the same hand-built model.
    assert_eq!(common::hand_built_artifact(4, 6).to_json(), GOLDEN);
    let snapshot = artifact.into_snapshot().expect("servable");
    assert!(snapshot.seen.is_some() && snapshot.index.is_some());
    assert_eq!(snapshot.frozen.precision(), Precision::I8);
}

#[test]
fn older_shapes_load_with_the_members_they_lack_absent() {
    let current = Artifact::from_json(GOLDEN).expect("loads").into_snapshot().expect("servable");
    let probe = [0, 4, 10];
    // v1 lacks all three, v2 the last two, v3 only `precision`.
    let added = ["seen", "index", "precision"];
    for version in 1..=3u32 {
        let lacks = &added[version as usize - 1..];
        let mut shape = GOLDEN.replacen("\"format_version\":4", &format!("\"format_version\":{version}"), 1);
        for name in lacks.iter().rev() {
            shape = without_last(&shape, name);
        }
        let artifact = Artifact::from_json(&shape).unwrap_or_else(|e| panic!("v{version}: {e}"));
        assert_eq!(artifact.format_version, version);
        let nulls: String = lacks.iter().map(|name| format!(",\"{name}\":null")).collect();
        assert_eq!(artifact.to_json(), format!("{}{nulls}}}", &shape[..shape.len() - 1]), "v{version}");
        let snapshot = artifact.into_snapshot().unwrap_or_else(|e| panic!("v{version}: {e}"));
        assert_eq!(snapshot.seen.is_some(), version >= 2, "v{version}");
        assert_eq!(snapshot.index.is_some(), version >= 3, "v{version}");
        assert_eq!(snapshot.frozen.precision(), Precision::F64, "v{version}");
        assert_eq!(
            snapshot.frozen.predict_feats(&probe).to_bits(),
            current.frozen.predict_feats(&probe).to_bits(),
            "v{version}"
        );
        assert_eq!(snapshot.catalog.map(|c| c.n_items()), Some(6), "v{version}");
    }
}

/// Membership and exclusion binary-search each user's seen list, so a
/// hand-edited or corrupted artifact that stores one out of order must
/// still exclude every item it names.
#[test]
fn a_seen_list_stored_out_of_order_still_excludes_every_item_it_names() {
    let edited = GOLDEN.replacen("\"per_user\":[[1,5],", "\"per_user\":[[5,3,1],", 1);
    assert_ne!(edited, GOLDEN);
    let artifact = Artifact::from_json(&edited).expect("loads");
    let seen = artifact.seen.as_ref().expect("seen sets");
    for item in [5, 3, 1] {
        assert!(seen.contains(0, item), "item {item}");
    }
    let served = Engine::load_json(&edited)
        .expect("loads")
        .handle_top_n(&TopNRequest::new(0, 6))
        .expect("a valid request")
        .value;
    let ids: Vec<u32> = served.iter().map(|&(item, _)| item).collect();
    assert_eq!(ids.len(), 3, "{ids:?}");
    assert!(ids.iter().all(|item| ![5, 3, 1].contains(item)), "{ids:?}");
}
