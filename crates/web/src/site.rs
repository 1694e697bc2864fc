//! Hostless web sites: signed, versioned, forkable bundles.
//!
//! §3.4's mechanism class: a site is identified by a public key (ZeroNet),
//! every version is a signed manifest over content-addressed pieces, and —
//! Beaker's contribution — sites can be *forked* (new key, explicit lineage)
//! and *merged* (file-level three-way-ish union with conflict reporting).

use std::cell::OnceCell;
use std::ops::Deref;
use std::rc::Rc;

use agora_crypto::{sha256, tagged_hash, Enc, Hash256, SimKeyPair, SimPublicKey, SimSignature};
use agora_storage::{Chunk, Manifest};

/// One file inside a site bundle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteFile {
    /// Path within the site ("index.html", "app.js", ...).
    pub path: String,
    /// Content hash of the file bytes.
    pub content_hash: Hash256,
    /// Length in bytes.
    pub len: u64,
}

/// A site version: the signed unit peers exchange and verify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteManifest {
    /// Site address = the publisher key fingerprint.
    pub site: Hash256,
    /// Monotonic version.
    pub version: u64,
    /// Root of the piece tree over the concatenated bundle (what the swarm
    /// transfers; see [`crate::swarm`]).
    pub bundle_root: Hash256,
    /// Bundle length in bytes.
    pub bundle_len: u64,
    /// Piece size used.
    pub piece_size: u32,
    /// Per-piece content hashes, in order (lets peers verify each piece as
    /// it arrives instead of only at completion).
    pub piece_ids: Vec<Hash256>,
    /// Files in the bundle, sorted by path.
    pub files: Vec<SiteFile>,
    /// Hash of the manifest this version descends from (fork lineage /
    /// previous version), if any.
    pub parent: Option<Hash256>,
}

impl SiteManifest {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new()
            .hash(&self.site)
            .u64(self.version)
            .hash(&self.bundle_root)
            .u64(self.bundle_len)
            .u32(self.piece_size)
            .u32(self.piece_ids.len() as u32);
        for pid in &self.piece_ids {
            e = e.hash(pid);
        }
        e = e.u32(self.files.len() as u32);
        for f in &self.files {
            e = e.str(&f.path).hash(&f.content_hash).u64(f.len);
        }
        match &self.parent {
            Some(p) => e = e.u8(1).hash(p),
            None => e = e.u8(0),
        }
        e.done()
    }

    /// Manifest hash (lineage pointer target).
    pub fn hash(&self) -> Hash256 {
        tagged_hash("site-manifest", &self.encode())
    }

    /// Wire size: the length of the canonical encoding, summed from the
    /// field sizes instead of built.
    pub fn wire_size(&self) -> u64 {
        // site, version, bundle_root, bundle_len, piece_size, two u32
        // counts and the parent tag byte.
        const FIXED: u64 = 32 + 8 + 32 + 8 + 4 + 4 + 4 + 1;
        // Per file: u32 path length, content hash, u64 len.
        let files: u64 = self
            .files
            .iter()
            .map(|f| 4 + f.path.len() as u64 + 32 + 8)
            .sum();
        let parent = if self.parent.is_some() { 32 } else { 0 };
        FIXED + 32 * self.piece_ids.len() as u64 + files + parent
    }
}

/// A manifest plus its publisher signature.
#[derive(Clone, Debug)]
pub struct SignedManifest {
    /// The manifest.
    pub manifest: SiteManifest,
    /// Publisher key (must fingerprint to `manifest.site`).
    pub author: SimPublicKey,
    /// Signature over the canonical encoding.
    pub signature: SimSignature,
}

impl SignedManifest {
    /// Verify authorship: key matches the site address and signs the bytes.
    pub fn verify(&self) -> bool {
        self.author.id() == self.manifest.site
            && self.author.verify(&self.manifest.encode(), &self.signature)
    }

    /// Wire size.
    pub fn wire_size(&self) -> u64 {
        self.manifest.wire_size() + 96
    }
}

/// A signed manifest as the swarm holds and sends it: immutable once
/// sealed, so its verdict and wire size are worked out once for every
/// holder of the `Rc` and every hop it travels. Nothing here takes a
/// verdict from outside or hands out `&mut`: a tampered manifest can only
/// be a clone that is sealed again, and that one verifies from scratch.
#[derive(Debug)]
pub struct SealedManifest {
    signed: SignedManifest,
    wire_size: u64,
    verdict: OnceCell<bool>,
}

impl SealedManifest {
    /// Seal `signed`. Proves nothing yet: [`SealedManifest::verify`] does.
    pub fn seal(signed: SignedManifest) -> Rc<SealedManifest> {
        Rc::new(SealedManifest {
            wire_size: signed.wire_size(),
            signed,
            verdict: OnceCell::new(),
        })
    }

    /// [`SignedManifest::verify`] of the sealed bytes, checked on first call.
    pub fn verify(&self) -> bool {
        *self.verdict.get_or_init(|| self.signed.verify())
    }

    /// Wire size.
    pub fn wire_size(&self) -> u64 {
        self.wire_size
    }
}

impl Deref for SealedManifest {
    type Target = SignedManifest;

    fn deref(&self) -> &SignedManifest {
        &self.signed
    }
}

/// One piece of a site bundle as the swarm holds and sends it: immutable
/// bytes plus a memo of their SHA-256. The digest only ever comes from
/// hashing this piece's own bytes (no constructor or setter takes one, and
/// nothing hands out `&mut` to the bytes), so a corrupt or forged piece is
/// always a different `Piece` that is hashed afresh; the memo only saves
/// re-hashing a buffer that cannot have changed.
#[derive(Debug)]
pub struct Piece {
    data: Box<[u8]>,
    digest: OnceCell<Hash256>,
}

impl Piece {
    /// A piece holding `bytes`, not yet hashed.
    pub fn new(bytes: impl Into<Box<[u8]>>) -> Rc<Piece> {
        Rc::new(Piece {
            data: bytes.into(),
            digest: OnceCell::new(),
        })
    }

    /// The bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// SHA-256 of the bytes, hashed on first call.
    pub fn digest(&self) -> Hash256 {
        *self.digest.get_or_init(|| sha256(&self.data))
    }
}

/// A publisher: holds the site key and builds signed versions.
pub struct SitePublisher {
    keys: SimKeyPair,
    version: u64,
    last_hash: Option<Hash256>,
}

/// A built site bundle: the signed manifest plus the transferable pieces.
pub struct SiteBundle {
    /// The signed manifest.
    pub signed: SignedManifest,
    /// The bundle pieces, in order.
    pub pieces: Vec<Chunk>,
}

/// Piece size for site bundles (16 KiB — small sites fit in a few pieces).
pub const SITE_PIECE_SIZE: usize = 16 * 1024;

impl SitePublisher {
    /// New site with a fresh key derived from seed material.
    pub fn new(seed: &[u8]) -> SitePublisher {
        SitePublisher {
            keys: SimKeyPair::from_seed(seed),
            version: 0,
            last_hash: None,
        }
    }

    /// The site address.
    pub fn site_id(&self) -> Hash256 {
        self.keys.public().id()
    }

    /// Publish a new version from (path, bytes) files. Files are sorted by
    /// path; the bundle is their concatenation in that order.
    pub fn publish(&mut self, files: &[(&str, &[u8])]) -> SiteBundle {
        let mut sorted: Vec<(&str, &[u8])> = files.to_vec();
        sorted.sort_by_key(|(p, _)| p.to_string());
        let mut blob = Vec::new();
        let mut file_entries = Vec::new();
        for (path, bytes) in &sorted {
            file_entries.push(SiteFile {
                path: (*path).to_owned(),
                content_hash: sha256(bytes),
                len: bytes.len() as u64,
            });
            blob.extend_from_slice(bytes);
        }
        let (piece_manifest, pieces) = Manifest::build(&blob, SITE_PIECE_SIZE);
        self.version += 1;
        let manifest = SiteManifest {
            site: self.site_id(),
            version: self.version,
            bundle_root: piece_manifest.object_id,
            bundle_len: blob.len() as u64,
            piece_size: SITE_PIECE_SIZE as u32,
            piece_ids: piece_manifest.chunks.clone(),
            files: file_entries,
            parent: self.last_hash,
        };
        self.last_hash = Some(manifest.hash());
        let signature = self.keys.sign(&manifest.encode());
        SiteBundle {
            signed: SignedManifest {
                manifest,
                author: self.keys.public(),
                signature,
            },
            pieces,
        }
    }

    /// Fork a site (Beaker-style): a *new* key and address whose first
    /// version carries the source manifest's hash as parent, preserving
    /// provenance while transferring control.
    pub fn fork(seed: &[u8], source: &SiteManifest) -> SitePublisher {
        SitePublisher {
            keys: SimKeyPair::from_seed(seed),
            version: source.version,
            last_hash: Some(source.hash()),
        }
    }
}

/// A file-level merge conflict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeConflict {
    /// Conflicting path.
    pub path: String,
    /// Hash on our side.
    pub ours: Hash256,
    /// Hash on their side.
    pub theirs: Hash256,
}

/// Merge two manifests' file tables: union by path; same-path different-hash
/// entries are conflicts resolved in favour of `ours`, and reported.
pub fn merge_files(
    ours: &SiteManifest,
    theirs: &SiteManifest,
) -> (Vec<SiteFile>, Vec<MergeConflict>) {
    let mut out: Vec<SiteFile> = ours.files.clone();
    let mut conflicts = Vec::new();
    for tf in &theirs.files {
        match out.iter().find(|f| f.path == tf.path) {
            None => out.push(tf.clone()),
            Some(of) if of.content_hash == tf.content_hash => {}
            Some(of) => conflicts.push(MergeConflict {
                path: tf.path.clone(),
                ours: of.content_hash,
                theirs: tf.content_hash,
            }),
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    (out, conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> (SitePublisher, SiteBundle) {
        let mut p = SitePublisher::new(b"my-site");
        let b = p.publish(&[
            ("index.html", b"<h1>hello</h1>".as_slice()),
            ("app.js", b"console.log('hi')".as_slice()),
        ]);
        (p, b)
    }

    #[test]
    fn publish_produces_verifiable_manifest() {
        let (_p, bundle) = site();
        assert!(bundle.signed.verify());
        assert_eq!(bundle.signed.manifest.version, 1);
        assert_eq!(bundle.signed.manifest.files.len(), 2);
        assert!(bundle.signed.manifest.parent.is_none());
        // Files are sorted by path.
        assert_eq!(bundle.signed.manifest.files[0].path, "app.js");
    }

    #[test]
    fn tampered_manifest_fails_verification() {
        let (_p, bundle) = site();
        let mut evil = bundle.signed.clone();
        evil.manifest.files[0].content_hash = sha256(b"malware");
        assert!(!evil.verify());
    }

    #[test]
    fn non_owner_cannot_sign_updates() {
        let (_p, bundle) = site();
        let mallory = SimKeyPair::from_seed(b"mallory");
        let mut fake = bundle.signed.clone();
        fake.manifest.version = 2;
        fake.signature = mallory.sign(&fake.manifest.encode());
        assert!(!fake.verify(), "wrong key for the site address");
        // Even claiming mallory's key fails: fingerprint ≠ site address.
        fake.author = mallory.public();
        assert!(!fake.verify());
    }

    #[test]
    fn wire_size_is_the_encoded_length() {
        let file = |path: &str| SiteFile {
            path: path.to_owned(),
            content_hash: sha256(path.as_bytes()),
            len: path.len() as u64,
        };
        let long = "d/".repeat(700) + "index.html";
        let file_tables = [
            vec![],
            vec![file("")],
            vec![file("index.html")],
            vec![file(""), file("app.js"), file(&long), file("ünïcödé.css")],
        ];
        for files in &file_tables {
            for pieces in [0usize, 1, 13, 300] {
                for parent in [None, Some(sha256(b"parent"))] {
                    let m = SiteManifest {
                        site: sha256(b"site"),
                        version: 3,
                        bundle_root: sha256(b"root"),
                        bundle_len: 1 << 40,
                        piece_size: SITE_PIECE_SIZE as u32,
                        piece_ids: (0..pieces).map(|i| sha256(&[i as u8])).collect(),
                        files: files.clone(),
                        parent,
                    };
                    assert_eq!(
                        m.wire_size(),
                        m.encode().len() as u64,
                        "{} files, {pieces} pieces, parent {}",
                        files.len(),
                        parent.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn versions_chain_via_parent() {
        let (mut p, b1) = site();
        let b2 = p.publish(&[("index.html", b"<h1>v2</h1>".as_slice())]);
        assert_eq!(b2.signed.manifest.version, 2);
        assert_eq!(b2.signed.manifest.parent, Some(b1.signed.manifest.hash()));
        assert!(b2.signed.verify());
    }

    #[test]
    fn fork_changes_address_but_keeps_lineage() {
        let (_p, b1) = site();
        let mut fork = SitePublisher::fork(b"forker", &b1.signed.manifest);
        let fb = fork.publish(&[("index.html", b"<h1>forked</h1>".as_slice())]);
        assert_ne!(fb.signed.manifest.site, b1.signed.manifest.site);
        assert_eq!(fb.signed.manifest.parent, Some(b1.signed.manifest.hash()));
        assert!(fb.signed.verify());
    }

    #[test]
    fn merge_union_and_conflicts() {
        let mut a = SitePublisher::new(b"a");
        let ba = a.publish(&[
            ("index.html", b"<h1>a</h1>".as_slice()),
            ("shared.css", b"body{}".as_slice()),
        ]);
        let mut b = SitePublisher::fork(b"b", &ba.signed.manifest);
        let bb = b.publish(&[
            ("index.html", b"<h1>b</h1>".as_slice()), // conflicts
            ("shared.css", b"body{}".as_slice()),     // identical
            ("extra.js", b"x()".as_slice()),          // new
        ]);
        let (merged, conflicts) = merge_files(&ba.signed.manifest, &bb.signed.manifest);
        assert_eq!(merged.len(), 3);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].path, "index.html");
        // Ours wins in the merged table.
        let idx = merged.iter().find(|f| f.path == "index.html").unwrap();
        assert_eq!(idx.content_hash, sha256(b"<h1>a</h1>"));
    }

    #[test]
    fn merge_both_sides_edited_reports_conflict_and_ours_wins() {
        // A common parent, then both forks edit the same two files in
        // divergent ways: every edited path is a conflict, none of the
        // untouched paths are, and ours wins each conflicted path.
        let mut parent = SitePublisher::new(b"parent");
        let base = parent.publish(&[
            ("index.html", b"<h1>v0</h1>".as_slice()),
            ("style.css", b"body{}".as_slice()),
            ("keep.txt", b"same".as_slice()),
        ]);
        let mut ours = SitePublisher::fork(b"fork-ours", &base.signed.manifest);
        let our_manifest = ours
            .publish(&[
                ("index.html", b"<h1>ours</h1>".as_slice()),
                ("style.css", b"body{color:red}".as_slice()),
                ("keep.txt", b"same".as_slice()),
            ])
            .signed
            .manifest;
        let mut theirs = SitePublisher::fork(b"fork-theirs", &base.signed.manifest);
        let their_manifest = theirs
            .publish(&[
                ("index.html", b"<h1>theirs</h1>".as_slice()),
                ("style.css", b"body{color:blue}".as_slice()),
                ("keep.txt", b"same".as_slice()),
            ])
            .signed
            .manifest;
        let (merged, conflicts) = merge_files(&our_manifest, &their_manifest);
        assert_eq!(merged.len(), 3);
        let mut conflicted: Vec<&str> = conflicts.iter().map(|c| c.path.as_str()).collect();
        conflicted.sort_unstable();
        assert_eq!(conflicted, ["index.html", "style.css"]);
        for c in &conflicts {
            let winner = merged.iter().find(|f| f.path == c.path).unwrap();
            assert_eq!(winner.content_hash, c.ours, "ours wins {}", c.path);
            assert_ne!(c.ours, c.theirs);
        }
        // Output stays path-sorted.
        assert!(merged.windows(2).all(|w| w[0].path < w[1].path));
    }

    #[test]
    fn merge_delete_vs_edit_resurrects_without_conflict() {
        // Ours deleted a file (absent from our manifest); theirs edited
        // it. File-table merge is a union: the edited copy survives and
        // no conflict is reported — deletions cannot be distinguished
        // from never-having-had the file. The symmetric case (we edited,
        // they deleted) keeps our copy, also conflict-free.
        let mut parent = SitePublisher::new(b"parent-del");
        let base = parent.publish(&[
            ("index.html", b"<h1>v0</h1>".as_slice()),
            ("old.js", b"legacy()".as_slice()),
        ]);
        let mut ours = SitePublisher::fork(b"del-ours", &base.signed.manifest);
        let our_manifest = ours
            .publish(&[("index.html", b"<h1>v0</h1>".as_slice())]) // old.js deleted
            .signed
            .manifest;
        let mut theirs = SitePublisher::fork(b"del-theirs", &base.signed.manifest);
        let their_manifest = theirs
            .publish(&[
                ("index.html", b"<h1>v0</h1>".as_slice()),
                ("old.js", b"modern()".as_slice()), // old.js edited
            ])
            .signed
            .manifest;
        let (merged, conflicts) = merge_files(&our_manifest, &their_manifest);
        assert!(
            conflicts.is_empty(),
            "delete-vs-edit is silent: {conflicts:?}"
        );
        let revived = merged.iter().find(|f| f.path == "old.js").unwrap();
        assert_eq!(revived.content_hash, sha256(b"modern()"));

        // Symmetric: edit-vs-delete keeps the editing side's copy.
        let (merged2, conflicts2) = merge_files(&their_manifest, &our_manifest);
        assert!(conflicts2.is_empty());
        assert!(merged2.iter().any(|f| f.path == "old.js"));
        assert_eq!(merged.len(), merged2.len());
    }

    #[test]
    fn bundle_pieces_reassemble() {
        let mut p = SitePublisher::new(b"big-site");
        let big = vec![7u8; 100_000];
        let bundle = p.publish(&[("blob.bin", big.as_slice())]);
        let total: usize = bundle.pieces.iter().map(|c| c.data.len()).sum();
        assert_eq!(total as u64, bundle.signed.manifest.bundle_len);
        assert!(bundle.pieces.len() > 1);
        assert!(bundle.pieces.iter().all(|c| c.verify()));
    }
}
