//! The two classical PKI baselines of §3.1 and their "well-known security,
//! trust, and revocation weaknesses": certification authorities (CA
//! compromise) and webs of trust (Sybil attacks).

use std::collections::VecDeque;

use agora_crypto::{Enc, Hash256, SimKeyPair, SimPublicKey, SimSignature};
use agora_sim::{FastMap, FastSet};

// ---------------------------------------------------------------------------
// Certification-authority PKI
// ---------------------------------------------------------------------------

/// A certificate binding a name to a subject key, signed by a CA.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The bound name.
    pub name: String,
    /// Subject's public-key fingerprint.
    pub subject_key: Hash256,
    /// Issuing CA's public key.
    pub issuer: SimPublicKey,
    /// Serial number (for revocation).
    pub serial: u64,
    /// CA signature over (name, subject, serial).
    pub signature: SimSignature,
}

fn cert_body(name: &str, subject_key: &Hash256, serial: u64) -> Vec<u8> {
    Enc::new().str(name).hash(subject_key).u64(serial).done()
}

impl Certificate {
    /// Verify issuer signature against a trusted CA key.
    pub fn verify(&self, trusted_ca: &SimPublicKey) -> bool {
        self.issuer == *trusted_ca
            && trusted_ca.verify(
                &cert_body(&self.name, &self.subject_key, self.serial),
                &self.signature,
            )
    }
}

/// A certification authority.
pub struct CertAuthority {
    keys: SimKeyPair,
    next_serial: u64,
    issued: Vec<Certificate>,
    revoked: FastSet<u64>,
}

impl CertAuthority {
    /// Create a CA from seed material.
    pub fn new(seed: &[u8]) -> CertAuthority {
        CertAuthority {
            keys: SimKeyPair::from_seed(seed),
            next_serial: 1,
            issued: Vec::new(),
            revoked: FastSet::default(),
        }
    }

    /// The CA's public key (the verifier's trust anchor).
    pub fn public(&self) -> SimPublicKey {
        self.keys.public()
    }

    /// Issue a certificate.
    pub fn issue(&mut self, name: &str, subject_key: Hash256) -> Certificate {
        let serial = self.next_serial;
        self.next_serial += 1;
        let cert = Certificate {
            name: name.to_owned(),
            subject_key,
            issuer: self.keys.public(),
            serial,
            signature: self.keys.sign(&cert_body(name, &subject_key, serial)),
        };
        self.issued.push(cert.clone());
        cert
    }

    /// Revoke a serial (goes on the CRL).
    pub fn revoke(&mut self, serial: u64) {
        self.revoked.insert(serial);
    }

    /// The CRL.
    pub fn crl(&self) -> &FastSet<u64> {
        &self.revoked
    }

    /// **Attack model**: the CA's signing key is exfiltrated. The returned
    /// keypair lets the attacker mint certificates that verify against the
    /// genuine trust anchor — the paper's "CA compromises".
    pub fn compromise(&self) -> SimKeyPair {
        self.keys.public().leak_seed_for_attack_model()
    }

    /// Certificates issued so far (transparency-log stand-in).
    pub fn issued(&self) -> &[Certificate] {
        &self.issued
    }
}

/// Full verification: signature + CRL.
pub fn verify_with_crl(cert: &Certificate, trusted_ca: &SimPublicKey, crl: &FastSet<u64>) -> bool {
    cert.verify(trusted_ca) && !crl.contains(&cert.serial)
}

// ---------------------------------------------------------------------------
// Web of Trust
// ---------------------------------------------------------------------------

/// A web of trust: identities endorse (name, key) bindings of other
/// identities. A binding is accepted if at least `quorum` *vertex-disjoint*
/// endorsement paths of bounded length lead from the verifier's anchors to
/// the binding's subject.
#[derive(Clone, Debug, Default)]
pub struct WebOfTrust {
    /// endorser → endorsed identities.
    edges: FastMap<Hash256, Vec<Hash256>>,
    /// identity → claimed (name, key) binding.
    bindings: FastMap<Hash256, (String, Hash256)>,
}

impl WebOfTrust {
    /// Empty web.
    pub fn new() -> WebOfTrust {
        WebOfTrust::default()
    }

    /// Record that identity `id` claims to be `name` with key `key`.
    pub fn claim(&mut self, id: Hash256, name: &str, key: Hash256) {
        self.bindings.insert(id, (name.to_owned(), key));
    }

    /// Record an endorsement (a keysigning).
    pub fn endorse(&mut self, endorser: Hash256, endorsed: Hash256) {
        let v = self.edges.entry(endorser).or_default();
        if !v.contains(&endorsed) {
            v.push(endorsed);
        }
    }

    /// Count vertex-disjoint paths (greedy BFS-and-remove; a lower bound,
    /// standard practice for WoT validation) from any anchor to `target`,
    /// with at most `max_hops` edges, up to `need` paths.
    fn disjoint_paths(
        &self,
        anchors: &[Hash256],
        target: Hash256,
        max_hops: usize,
        need: usize,
    ) -> usize {
        let mut used: FastSet<Hash256> = FastSet::default();
        let mut found = 0;
        while found < need {
            // BFS avoiding interior vertices used by prior paths.
            let mut prev: FastMap<Hash256, Hash256> = FastMap::default();
            let mut depth: FastMap<Hash256, usize> = FastMap::default();
            let mut q = VecDeque::new();
            for &a in anchors {
                if !used.contains(&a) {
                    q.push_back(a);
                    depth.insert(a, 0);
                }
            }
            let mut reached = false;
            while let Some(u) = q.pop_front() {
                let d = depth[&u];
                if d >= max_hops {
                    continue;
                }
                for &v in self.edges.get(&u).into_iter().flatten() {
                    if depth.contains_key(&v) || (used.contains(&v) && v != target) {
                        continue;
                    }
                    prev.insert(v, u);
                    depth.insert(v, d + 1);
                    if v == target {
                        reached = true;
                        break;
                    }
                    q.push_back(v);
                }
                if reached {
                    break;
                }
            }
            if !reached {
                break;
            }
            // Mark interior vertices of this path as used.
            let mut cur = target;
            while let Some(&p) = prev.get(&cur) {
                if p != target && !anchors.contains(&p) {
                    used.insert(p);
                }
                cur = p;
            }
            found += 1;
        }
        found
    }

    /// Verify a (name, key) binding: the claiming identity must be reachable
    /// by `quorum` disjoint paths of ≤ `max_hops` from the verifier's
    /// anchors, and its claimed binding must match.
    pub fn verify(
        &self,
        anchors: &[Hash256],
        claimant: Hash256,
        name: &str,
        key: Hash256,
        max_hops: usize,
        quorum: usize,
    ) -> bool {
        match self.bindings.get(&claimant) {
            Some((n, k)) if n == name && *k == key => {}
            _ => return false,
        }
        if anchors.contains(&claimant) {
            return true;
        }
        self.disjoint_paths(anchors, claimant, max_hops, quorum) >= quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_crypto::sha256;

    // -- CA tests ----------------------------------------------------------

    #[test]
    fn ca_issue_and_verify() {
        let mut ca = CertAuthority::new(b"root-ca");
        let cert = ca.issue("alice.example", sha256(b"alice-key"));
        assert!(cert.verify(&ca.public()));
        assert!(verify_with_crl(&cert, &ca.public(), ca.crl()));
    }

    #[test]
    fn wrong_ca_rejected() {
        let mut ca = CertAuthority::new(b"root-ca");
        let other = CertAuthority::new(b"other-ca");
        let cert = ca.issue("alice.example", sha256(b"alice-key"));
        assert!(!cert.verify(&other.public()));
    }

    #[test]
    fn tampered_cert_rejected() {
        let mut ca = CertAuthority::new(b"root-ca");
        let mut cert = ca.issue("alice.example", sha256(b"alice-key"));
        cert.subject_key = sha256(b"mallory-key");
        assert!(!cert.verify(&ca.public()));
    }

    #[test]
    fn revocation_via_crl() {
        let mut ca = CertAuthority::new(b"root-ca");
        let cert = ca.issue("alice.example", sha256(b"alice-key"));
        ca.revoke(cert.serial);
        assert!(cert.verify(&ca.public()), "signature still fine");
        assert!(
            !verify_with_crl(&cert, &ca.public(), ca.crl()),
            "but CRL kills it"
        );
    }

    #[test]
    fn ca_compromise_mints_accepted_rogue_certs() {
        let mut ca = CertAuthority::new(b"root-ca");
        let _legit = ca.issue("bank.example", sha256(b"bank-key"));
        // Attacker exfiltrates the CA key and issues a cert for the SAME
        // name with the attacker's key — it verifies against the genuine
        // trust anchor. This is the §3.1 CA-compromise weakness.
        let stolen = ca.compromise();
        let body = cert_body("bank.example", &sha256(b"attacker-key"), 999);
        let rogue = Certificate {
            name: "bank.example".into(),
            subject_key: sha256(b"attacker-key"),
            issuer: ca.public(),
            serial: 999,
            signature: stolen.sign(&body),
        };
        assert!(rogue.verify(&ca.public()), "rogue cert accepted");
        // Only after discovery + revocation does verification fail.
        ca.revoke(999);
        assert!(!verify_with_crl(&rogue, &ca.public(), ca.crl()));
    }

    // -- WoT tests -----------------------------------------------------------

    fn id(s: &str) -> Hash256 {
        sha256(s.as_bytes())
    }

    /// anchor → a → target and anchor → b → target (2 disjoint paths).
    fn honest_web() -> (WebOfTrust, Hash256, Hash256) {
        let mut w = WebOfTrust::new();
        let (anchor, a, b, target) = (id("anchor"), id("a"), id("b"), id("target"));
        w.endorse(anchor, a);
        w.endorse(anchor, b);
        w.endorse(a, target);
        w.endorse(b, target);
        w.claim(target, "target.name", id("target-key"));
        (w, anchor, target)
    }

    #[test]
    fn wot_accepts_with_quorum_paths() {
        let (w, anchor, target) = honest_web();
        assert!(w.verify(&[anchor], target, "target.name", id("target-key"), 3, 2));
    }

    #[test]
    fn wot_rejects_wrong_binding() {
        let (w, anchor, target) = honest_web();
        assert!(!w.verify(&[anchor], target, "target.name", id("wrong-key"), 3, 2));
        assert!(!w.verify(&[anchor], target, "other.name", id("target-key"), 3, 2));
    }

    #[test]
    fn wot_rejects_insufficient_disjoint_paths() {
        let mut w = WebOfTrust::new();
        let (anchor, mid, target) = (id("anchor"), id("mid"), id("target"));
        // Two "paths" share the single interior vertex `mid` ⇒ 1 disjoint.
        w.endorse(anchor, mid);
        w.endorse(mid, target);
        w.claim(target, "t", id("k"));
        assert!(w.verify(&[anchor], target, "t", id("k"), 3, 1));
        assert!(!w.verify(&[anchor], target, "t", id("k"), 3, 2));
    }

    #[test]
    fn wot_hop_limit_enforced() {
        let mut w = WebOfTrust::new();
        let chain: Vec<Hash256> = (0..5).map(|i| id(&format!("n{i}"))).collect();
        for pair in chain.windows(2) {
            w.endorse(pair[0], pair[1]);
        }
        let target = chain[4];
        w.claim(target, "far", id("k"));
        assert!(w.verify(&[chain[0]], target, "far", id("k"), 4, 1));
        assert!(!w.verify(&[chain[0]], target, "far", id("k"), 3, 1));
    }

    #[test]
    fn wot_sybil_attack_with_one_social_engineered_edge() {
        // The paper's "WoT Sybil attacks": the adversary mints fake
        // identities that endorse each other and the rogue binding. With no
        // edge from the honest web the attack fails; once ONE honest member
        // is tricked into endorsing ONE Sybil, a quorum-1 verifier accepts
        // the rogue binding — and with two tricked members, quorum-2 falls.
        let mut w = WebOfTrust::new();
        let anchor = id("anchor");
        let honest1 = id("honest1");
        let honest2 = id("honest2");
        w.endorse(anchor, honest1);
        w.endorse(anchor, honest2);
        let sybils: Vec<Hash256> = (0..10).map(|i| id(&format!("sybil{i}"))).collect();
        let rogue = id("rogue");
        for s in &sybils {
            w.endorse(*s, rogue);
            for t in &sybils {
                if s != t {
                    w.endorse(*s, *t);
                }
            }
        }
        w.claim(rogue, "bank.example", id("attacker-key"));
        // Isolated Sybil cluster: unreachable, attack fails.
        assert!(!w.verify(&[anchor], rogue, "bank.example", id("attacker-key"), 4, 1));
        // One social-engineered endorsement bridges the cluster.
        w.endorse(honest1, sybils[0]);
        assert!(w.verify(&[anchor], rogue, "bank.example", id("attacker-key"), 4, 1));
        // Quorum 2 still resists (one bridge ⇒ one disjoint path)...
        assert!(!w.verify(&[anchor], rogue, "bank.example", id("attacker-key"), 4, 2));
        // ...until a second honest member is tricked.
        w.endorse(honest2, sybils[1]);
        assert!(w.verify(&[anchor], rogue, "bank.example", id("attacker-key"), 4, 2));
    }
}
