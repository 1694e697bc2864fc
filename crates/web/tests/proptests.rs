//! Property tests for site manifests and fork/merge semantics. Always on,
//! 256 seeded `SimRng` cases per property, no registry dependency.

use agora_sim::SimRng;
use agora_web::{merge_files, SitePublisher};

const CASES: u64 = 256;

/// One to seven files with distinct `[a-z]{1,10}.[a-z]{2,4}` names, sorted
/// by name, each holding up to 299 random bytes.
fn file_set(rng: &mut SimRng) -> Vec<(String, Vec<u8>)> {
    let mut word = |lo: u64, hi: u64| -> String {
        (0..rng.range(lo, hi))
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect()
    };
    let mut names: Vec<String> = Vec::new();
    for _ in 0..7 {
        names.push(format!("{}.{}", word(1, 11), word(2, 5)));
    }
    names.truncate(rng.range(1, 8) as usize);
    let mut files: Vec<(String, Vec<u8>)> = names
        .into_iter()
        .map(|name| {
            let len = rng.below(300) as usize;
            (name, rng.bytes(len))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files.dedup_by(|a, b| a.0 == b.0);
    files
}

fn refs(files: &[(String, Vec<u8>)]) -> Vec<(&str, &[u8])> {
    files
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect()
}

/// Published bundles verify; any field mutation invalidates them; piece
/// bytes always total the manifest's bundle length.
#[test]
fn publish_invariants() {
    let mut cases = SimRng::new(0x7765_6231);
    for case in 0..CASES {
        let files = file_set(&mut cases);
        let mut p = SitePublisher::new(&cases.next_u64().to_be_bytes());
        let bundle = p.publish(&refs(&files));
        assert!(bundle.signed.verify(), "case {case}");
        assert_eq!(bundle.signed.manifest.files.len(), files.len());
        let total: u64 = bundle.pieces.iter().map(|c| c.data.len() as u64).sum();
        assert_eq!(total, bundle.signed.manifest.bundle_len, "case {case}");
        assert_eq!(
            bundle.signed.manifest.piece_ids.len(),
            bundle.pieces.len(),
            "case {case}"
        );
        // Every mutation breaks the signature.
        let mut evil = bundle.signed.clone();
        evil.manifest.bundle_len ^= 1;
        assert!(!evil.verify(), "case {case}");
    }
}

/// Version chains: successive publishes link via parent hashes and
/// increment versions.
#[test]
fn version_chain() {
    let mut cases = SimRng::new(0x7765_6232);
    for case in 0..CASES {
        let files = file_set(&mut cases);
        let mut p = SitePublisher::new(b"chain-site");
        let mut prev_hash = None;
        for v in 1..=cases.range(1, 5) {
            let b = p.publish(&refs(&files));
            assert_eq!(b.signed.manifest.version, v, "case {case}");
            assert_eq!(b.signed.manifest.parent, prev_hash, "case {case}");
            prev_hash = Some(b.signed.manifest.hash());
        }
    }
}

/// Merge is a union: every path from either side appears exactly once;
/// conflicts are exactly the same-path-different-hash cases; `ours`
/// always wins conflicted paths.
#[test]
fn merge_properties() {
    let mut cases = SimRng::new(0x7765_6233);
    let mut conflicted = 0;
    for case in 0..CASES {
        let ours = file_set(&mut cases);
        let mut theirs = file_set(&mut cases);
        // Half the cases share a path with ours, so conflicts and
        // same-content overlaps both happen.
        if cases.chance(0.5) {
            let (name, data) = &ours[0];
            let data = if cases.chance(0.5) {
                data.clone()
            } else {
                cases.bytes(data.len() + 1)
            };
            theirs.retain(|(n, _)| n != name);
            theirs.push((name.clone(), data));
            theirs.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let ma = SitePublisher::new(b"merge-a")
            .publish(&refs(&ours))
            .signed
            .manifest;
        let mb = SitePublisher::new(b"merge-b")
            .publish(&refs(&theirs))
            .signed
            .manifest;
        let (merged, conflicts) = merge_files(&ma, &mb);
        // Exactly the union of paths.
        let mut expect: Vec<&str> = ours
            .iter()
            .chain(&theirs)
            .map(|(n, _)| n.as_str())
            .collect();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<&str> = merged.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(got, expect, "case {case}");
        // Conflicts are same-path different-content pairs, resolved ours-first.
        for c in &conflicts {
            let of = ma
                .files
                .iter()
                .find(|f| f.path == c.path)
                .expect("ours has it");
            let tf = mb
                .files
                .iter()
                .find(|f| f.path == c.path)
                .expect("theirs has it");
            assert_ne!(of.content_hash, tf.content_hash, "case {case}");
            let mf = merged
                .iter()
                .find(|f| f.path == c.path)
                .expect("merged has it");
            assert_eq!(mf.content_hash, of.content_hash, "case {case}: ours wins");
        }
        conflicted += u64::from(!conflicts.is_empty());
        // Merge with self is conflict-free and identity.
        let (self_merge, self_conflicts) = merge_files(&ma, &ma);
        assert!(self_conflicts.is_empty(), "case {case}");
        assert_eq!(self_merge.len(), ma.files.len(), "case {case}");
    }
    assert!(conflicted > CASES / 8, "only {conflicted} cases conflicted");
}
