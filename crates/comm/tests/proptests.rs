//! Property tests for the ratchet and moderation models. Always on, 256
//! seeded `SimRng` cases per property, no registry dependency.

use agora_comm::{AbuseKind, ModerationPolicy, PostLabel, RatchetSession};
use agora_crypto::sha256;
use agora_sim::SimRng;

const CASES: u64 = 256;

/// Uniform length in `[lo, hi)`, then that many random bytes.
fn bytes(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let len = rng.range(lo, hi) as usize;
    rng.bytes(len)
}

/// Arbitrary conversations in arbitrary delivery orders decrypt exactly
/// once each, as long as reordering stays within the skip window.
#[test]
fn ratchet_survives_reordering() {
    let mut cases = SimRng::new(0x636f_6d31);
    for case in 0..CASES {
        let msgs: Vec<Vec<u8>> = (0..cases.range(1, 40))
            .map(|_| bytes(&mut cases, 0, 100))
            .collect();
        let secret = sha256(b"prop-session");
        let mut alice = RatchetSession::initiator(&secret);
        let mut bob = RatchetSession::responder(&secret);
        let sealed: Vec<_> = msgs.iter().map(|m| alice.encrypt(m)).collect();
        let mut order: Vec<usize> = (0..sealed.len()).collect();
        cases.shuffle(&mut order);
        for &i in &order {
            let got = bob.decrypt(&sealed[i]).expect("within skip window");
            assert_eq!(got, msgs[i], "case {case}: message {i}");
        }
        // Replays all fail (keys destroyed).
        for s in &sealed {
            assert!(bob.decrypt(s).is_err(), "case {case}");
        }
    }
}

/// Bidirectional interleaved traffic stays in sync.
#[test]
fn ratchet_bidirectional() {
    let mut cases = SimRng::new(0x636f_6d32);
    for case in 0..CASES {
        let secret = sha256(b"prop-bidir");
        let mut alice = RatchetSession::initiator(&secret);
        let mut bob = RatchetSession::responder(&secret);
        for i in 0..cases.range(1, 60) {
            let msg = format!("m{i}");
            let got = if cases.chance(0.5) {
                bob.decrypt(&alice.encrypt(msg.as_bytes()))
            } else {
                alice.decrypt(&bob.encrypt(msg.as_bytes()))
            };
            assert_eq!(got.expect("sync"), msg.as_bytes(), "case {case}");
        }
    }
}

/// Tampering with the binding always fails decryption and never
/// desynchronizes the genuine stream.
#[test]
fn ratchet_tamper_rejected() {
    let mut cases = SimRng::new(0x636f_6d33);
    for case in 0..CASES {
        let msg = bytes(&mut cases, 0, 100);
        let secret = sha256(b"prop-tamper");
        let mut alice = RatchetSession::initiator(&secret);
        let mut bob = RatchetSession::responder(&secret);
        let original = alice.encrypt(&msg);
        let mut sealed = original.clone();
        sealed.binding = sha256(&cases.next_u64().to_be_bytes());
        assert!(bob.decrypt(&sealed).is_err(), "case {case}");
        assert_eq!(
            bob.decrypt(&original).expect("genuine still works"),
            msg,
            "case {case}"
        );
    }
}

/// Moderation rates converge to the configured probabilities.
#[test]
fn moderation_rates_converge() {
    let mut cases = SimRng::new(0x636f_6d34);
    let p = ModerationPolicy::platform_default();
    for case in 0..CASES {
        let mut rng = SimRng::new(cases.next_u64());
        let n = 2000;
        let rate = |label: PostLabel, rng: &mut SimRng| {
            (0..n).filter(|_| p.blocks(label, rng)).count() as f64 / n as f64
        };
        let blocked_abuse = rate(PostLabel::Abuse(AbuseKind::Spam), &mut rng);
        let blocked_legit = rate(PostLabel::Legit, &mut rng);
        assert!(
            (blocked_abuse - p.detection_rate).abs() < 0.05,
            "case {case}: abuse block rate {blocked_abuse}"
        );
        assert!(
            (blocked_legit - p.false_positive_rate).abs() < 0.02,
            "case {case}: legit block rate {blocked_legit}"
        );
    }
}
