//! The byte-level artifact loader against the tree-based one it replaced
//! (`common::tree_artifact`), on a trained artifact of every freezable
//! spec: as written; with the members of its objects shuffled,
//! duplicated, padded with junk of every JSON type, or dropped; with
//! single-byte mutations and truncations. `Artifact::from_json` followed
//! by `into_snapshot` must fail where the oracle does, with the same
//! `EngineError` variant, and otherwise write back the same bytes.

mod common;

use common::freezable_specs;
use common::tree_artifact::json_tree::{parse, Value};
use common::tree_artifact::TreeArtifact;
use gmlfm_data::{generate, DatasetSpec};
use gmlfm_engine::{Artifact, Engine, EngineError, SplitPlan};
use gmlfm_serve::RetrievalStrategy;
use gmlfm_train::TrainConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained artifact per freezable spec. Even-numbered specs are fit
/// with IVF retrieval (the metric ones build an index), so the optional
/// `index` member occurs both present and `null`.
fn artifacts() -> &'static [String] {
    static ARTIFACTS: OnceLock<Vec<String>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let dataset = generate(&DatasetSpec::AmazonAuto.config(83).scaled(0.05));
        freezable_specs()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let retrieval = match i % 2 {
                    0 => RetrievalStrategy::Ivf { nprobe: None },
                    _ => RetrievalStrategy::Exact,
                };
                let rec = Engine::builder()
                    .dataset(dataset.clone())
                    .split(SplitPlan::topn(3))
                    .spec(spec)
                    .train_config(TrainConfig { epochs: 1, ..TrainConfig::default() })
                    .retrieval(retrieval)
                    .fit()
                    .expect("freezable specs fit the top-n task");
                rec.artifact().expect("freezable").to_json()
            })
            .collect()
    })
}

/// This build's load: the bytes the artifact writes back, once it has
/// also become a servable snapshot.
fn load(text: &str) -> Result<String, EngineError> {
    let artifact = Artifact::from_json(text)?;
    let written = artifact.to_json();
    artifact.into_snapshot().map(|_| written)
}

/// The oracle's load. `into_snapshot` is shared code: it runs on what
/// the tree decoded, read back from the bytes the oracle writes.
fn tree_load(text: &str) -> Result<String, EngineError> {
    let written = TreeArtifact::from_json(text)?.to_json();
    let artifact = Artifact::from_json(&written).expect("what the tree decoded loads");
    artifact.into_snapshot().map(|_| written)
}

/// A load as compared: the written bytes, or the error's variant.
fn outcome(loaded: Result<String, EngineError>) -> Result<String, &'static str> {
    loaded.map_err(|e| match e {
        EngineError::Json(_) => "Json",
        EngineError::BadArtifact(_) => "BadArtifact",
        EngineError::UnsupportedVersion { .. } => "UnsupportedVersion",
        other => panic!("a load cannot fail with {other:?}"),
    })
}

fn loaders_agree(text: &str) -> Result<(), TestCaseError> {
    let (tree, bytes) = (outcome(tree_load(text)), outcome(load(text)));
    if tree != bytes {
        let show = |o: &Result<String, &str>| match o {
            Ok(written) => format!("Ok, {} bytes", written.len()),
            Err(variant) => format!("Err({variant})"),
        };
        let (a, b) = (tree.clone().unwrap_or_default(), bytes.clone().unwrap_or_default());
        let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        let near = |s: &str| s.get(at.saturating_sub(60)..(at + 60).min(s.len())).unwrap_or("").to_string();
        prop_assert!(
            false,
            "tree: {}, bytes: {}; first difference at {at}:\n  tree:  {}\n  bytes: {}\nartifact: {}",
            show(&tree),
            show(&bytes),
            near(&a),
            near(&b),
            text.get(..text.len().min(400)).unwrap_or(text)
        );
    }
    Ok(())
}

/// splitmix64: the mutations' randomness, from one drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// Every member name some artifact shape reads.
const KNOWN: &str = "format_version spec schema frozen catalog seen index precision model k transform \
                     dnn_layers distance use_weight dropout init_std seed lr reg epochs layers \
                     attention_size cin_maps cin_depth fields name cardinality kind w0 w v second rows \
                     cols data v_hat q h v_trans item_slots user_templates item_feats per_user phi_mean \
                     item_norms assignments default_nprobe min_candidates";

/// Values of every JSON type, mostly of the wrong type for any member.
const JUNK: [&str; 15] = [
    "null",
    "true",
    "-1.5",
    "2.55e2",
    "18446744073709551616",
    "4",
    "\"junk\"",
    "\"i8\"",
    "\"Euclidean\"",
    "[1,[2,{}]]",
    "[[0,1],[2]]",
    r#"{"kind":"dot"}"#,
    r#"{"rows":1,"cols":1,"data":[0.5]}"#,
    "[]",
    "{}",
];

fn junk(mix: &mut Mix) -> Value {
    parse(JUNK[mix.below(JUNK.len())]).expect("junk is well-formed")
}

fn objects(v: &Value) -> usize {
    match v {
        Value::Arr(items) => items.iter().map(objects).sum(),
        Value::Obj(members) => 1 + members.iter().map(|(_, v)| objects(v)).sum::<usize>(),
        _ => 0,
    }
}

/// Shuffles every object's members and pads them with what the loader
/// must ignore: later duplicates, unknown keys. A `hostile` pass also,
/// about once per document, drops a member, puts a known key ahead of
/// it, or inserts a known key holding junk.
fn mutate_members(v: &mut Value, mix: &mut Mix, hostile: Option<usize>) {
    match v {
        Value::Arr(items) => items.iter_mut().for_each(|item| mutate_members(item, mix, hostile)),
        Value::Obj(members) => {
            members.iter_mut().for_each(|(_, value)| mutate_members(value, mix, hostile));
            if mix.chance(2) {
                for i in (1..members.len()).rev() {
                    members.swap(i, mix.below(i + 1));
                }
            }
            if !members.is_empty() && mix.chance(3) {
                let at = mix.below(members.len());
                let (key, value) = members[at].clone();
                let value = if mix.chance(2) { value } else { junk(mix) };
                members.insert(at + 1 + mix.below(members.len() - at), (key, value));
            }
            for _ in 0..mix.below(3) {
                let key = format!("junk_{}", mix.below(4));
                let value = junk(mix);
                members.insert(mix.below(members.len() + 1), (key, value));
            }
            if hostile.is_some_and(|n| mix.chance(n)) {
                let known: Vec<&str> = KNOWN.split_whitespace().collect();
                match mix.below(3) {
                    0 if !members.is_empty() => {
                        members.remove(mix.below(members.len()));
                    }
                    1 if !members.is_empty() => {
                        let at = mix.below(members.len());
                        let key = members[at].0.clone();
                        let value = junk(mix);
                        members.insert(mix.below(at + 1), (key, value));
                    }
                    _ => {
                        let key = known[mix.below(known.len())].to_string();
                        let value = junk(mix);
                        members.insert(mix.below(members.len() + 1), (key, value));
                    }
                }
            }
        }
        _ => {}
    }
}

/// `text` with its objects' members mutated.
fn with_mutated_members(text: &str, mix: &mut Mix, hostile: bool) -> String {
    let mut v = parse(text).expect("the writer writes JSON");
    let hostile = hostile.then(|| objects(&v));
    mutate_members(&mut v, mix, hostile);
    serde::json::to_string(&v)
}

/// One byte replaced, inserted or deleted, or the text cut short.
fn with_byte_mutation(text: &str, mix: &mut Mix) -> Option<String> {
    const SIGNIFICANT: &[u8] = b"{}[]\",:.-+eE0123456789 \\nutrfals\xff";
    let mut out = text.as_bytes().to_vec();
    let at = mix.below(out.len() + 1);
    let byte = if mix.chance(2) { SIGNIFICANT[mix.below(SIGNIFICANT.len())] } else { mix.next() as u8 };
    match mix.below(4) {
        0 if at < out.len() => out[at] = byte,
        1 => out.insert(at, byte),
        2 if at < out.len() => {
            out.remove(at);
        }
        _ => out.truncate(at),
    }
    String::from_utf8(out).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn artifacts_load_as_the_tree_loader_loads_them(variant in 0usize..10, seed in any::<u64>()) {
        let text = &artifacts()[variant];
        let written = load(text).ok();
        prop_assert_eq!(written.as_ref(), Some(text), "an artifact writes back its own bytes");
        loaders_agree(text)?;
        let mut mix = Mix(seed);
        // Order, later duplicates and unknown keys change nothing.
        let padded = with_mutated_members(text, &mut mix, false);
        let written = load(&padded).ok();
        prop_assert_eq!(written.as_ref(), Some(text), "{}", padded);
        loaders_agree(&padded)?;
        for _ in 0..3 {
            loaders_agree(&with_mutated_members(text, &mut mix, true))?;
            if let Some(mutated) = with_byte_mutation(text, &mut mix) {
                loaders_agree(&mutated)?;
            }
        }
    }
}

#[test]
fn each_optional_member_occurs_present_and_null() {
    for member in ["\"index\":{", "\"index\":null", "\"seen\":{"] {
        assert!(artifacts().iter().any(|a| a.contains(member)), "no artifact has {member}");
    }
}

/// Where a value sits: element or member positions from the root.
type Path = Vec<usize>;

/// The paths of every object in `v`, and of every array of arrays (the
/// catalogue's tables, the seen lists).
fn shapes(v: &Value, path: &mut Path, objects: &mut Vec<Path>, tables: &mut Vec<Path>) {
    let children: Vec<&Value> = match v {
        Value::Obj(members) => {
            objects.push(path.clone());
            members.iter().map(|(_, v)| v).collect()
        }
        Value::Arr(items) if matches!(items.first(), Some(Value::Arr(_))) => {
            tables.push(path.clone());
            return;
        }
        Value::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        shapes(child, path, objects, tables);
        path.pop();
    }
}

fn node_mut<'v>(mut v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    for &i in path {
        v = match v {
            Value::Arr(items) => &mut items[i],
            Value::Obj(members) => &mut members[i].1,
            _ => panic!("a path runs through containers"),
        };
    }
    v
}

/// `root` with `edit` applied to the value at `path`, as text.
fn edited(root: &Value, path: &[usize], edit: impl FnOnce(&mut Value)) -> String {
    let mut v = root.clone();
    edit(node_mut(&mut v, path));
    serde::json::to_string(&v)
}

/// Every member of every object of every artifact, one at a time:
/// dropped, and shadowed by an earlier member of its key holding junk.
/// And every table with one value gone from its first non-empty row,
/// which makes the catalogue's item groups ragged.
#[test]
fn every_member_dropped_or_shadowed_loads_as_the_tree_loader_does() {
    let agree = |text: &str| loaders_agree(text).unwrap_or_else(|e| panic!("{e:?}"));
    let mut junk_at = 0;
    for text in artifacts() {
        let root = parse(text).expect("the writer writes JSON");
        let (mut objects, mut tables) = (Vec::new(), Vec::new());
        shapes(&root, &mut Vec::new(), &mut objects, &mut tables);
        for path in &objects {
            let mut members = root.clone();
            let Value::Obj(members) = node_mut(&mut members, path) else { unreachable!("an object path") };
            for (m, (key, _)) in members.iter().enumerate() {
                agree(&edited(&root, path, |v| drop(as_members(v).remove(m))));
                let junk = parse(JUNK[junk_at % JUNK.len()]).expect("junk is well-formed");
                junk_at += 1;
                agree(&edited(&root, path, |v| as_members(v).insert(m, (key.clone(), junk))));
            }
        }
        for path in &tables {
            agree(&edited(&root, path, |v| {
                if let Value::Arr(rows) = v {
                    if let Some(Value::Arr(row)) =
                        rows.iter_mut().find(|r| matches!(r, Value::Arr(x) if !x.is_empty()))
                    {
                        row.pop();
                    }
                }
            }));
        }
    }
}

fn as_members(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Obj(members) => members,
        _ => panic!("an object path"),
    }
}
