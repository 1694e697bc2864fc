//! Content-addressed objects: chunking and manifests.
//!
//! An object is split into fixed-size chunks, each addressed by its hash; a
//! [`Manifest`] commits to the chunk list with a Merkle tree (IPFS-style
//! content addressing). Erasure coding operates per object over the
//! concatenated bytes (see [`crate::erasure`]); chunks are the retrieval and
//! challenge granularity.

use agora_crypto::{leaf_hash, sha256, Hash256, MerkleProof, MerkleTree};

/// Default chunk size (64 KiB — small enough for consumer uplinks to move a
/// chunk in ~0.5 s, large enough to keep manifests small).
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// A content-addressed chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// `sha256` of the bytes.
    pub id: Hash256,
    /// The bytes.
    pub data: Vec<u8>,
}

impl Chunk {
    /// Create (and address) a chunk.
    pub fn new(data: Vec<u8>) -> Chunk {
        Chunk {
            id: sha256(&data),
            data,
        }
    }

    /// Verify the bytes match the id.
    pub fn verify(&self) -> bool {
        sha256(&self.data) == self.id
    }
}

/// A manifest: ordered chunk ids plus a Merkle commitment over them.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Object id (= Merkle root over chunk ids).
    pub object_id: Hash256,
    /// Total object length in bytes.
    pub length: u64,
    /// Chunk size used.
    pub chunk_size: u32,
    /// Ordered chunk ids.
    pub chunks: Vec<Hash256>,
    tree: MerkleTree,
}

impl Manifest {
    /// Chunk `data` and build its manifest.
    pub fn build(data: &[u8], chunk_size: usize) -> (Manifest, Vec<Chunk>) {
        let chunk_size = chunk_size.max(1);
        let chunks: Vec<Chunk> = if data.is_empty() {
            vec![Chunk::new(Vec::new())]
        } else {
            data.chunks(chunk_size)
                .map(|c| Chunk::new(c.to_vec()))
                .collect()
        };
        let ids: Vec<Hash256> = chunks.iter().map(|c| c.id).collect();
        let tree =
            MerkleTree::from_leaf_hashes(ids.iter().map(|h| leaf_hash(h.as_bytes())).collect());
        (
            Manifest {
                object_id: tree.root(),
                length: data.len() as u64,
                chunk_size: chunk_size as u32,
                chunks: ids,
                tree,
            },
            chunks,
        )
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Prove that chunk `index` belongs to this object.
    pub fn prove_chunk(&self, index: usize) -> Option<MerkleProof> {
        self.tree.prove(index)
    }

    /// Verify that `chunk` is chunk `index` of the `chunk_count`-chunk object
    /// `object_id`. The count comes from the verifier's own manifest.
    pub fn verify_chunk(
        object_id: &Hash256,
        index: usize,
        chunk_count: usize,
        chunk: &Chunk,
        proof: &MerkleProof,
    ) -> bool {
        chunk.verify()
            && proof.verify_at(
                leaf_hash(chunk.id.as_bytes()),
                index,
                chunk_count,
                *object_id,
            )
    }

    /// Reassemble the object from its chunks (must be complete and ordered
    /// by the manifest). `None` on any mismatch.
    pub fn assemble(&self, chunks: &[Chunk]) -> Option<Vec<u8>> {
        if chunks.len() != self.chunks.len() {
            return None;
        }
        let mut out = Vec::with_capacity(self.length as usize);
        for (want, chunk) in self.chunks.iter().zip(chunks) {
            if &chunk.id != want || !chunk.verify() {
                return None;
            }
            out.extend_from_slice(&chunk.data);
        }
        if out.len() as u64 != self.length {
            return None;
        }
        Some(out)
    }

    /// Wire size of the manifest itself.
    pub fn wire_size(&self) -> u64 {
        32 + 8 + 4 + self.chunks.len() as u64 * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_round_trip() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let (manifest, chunks) = Manifest::build(&data, DEFAULT_CHUNK_SIZE);
        assert_eq!(manifest.chunk_count(), 4); // ceil(200000 / 65536)
        assert_eq!(manifest.assemble(&chunks).unwrap(), data);
    }

    #[test]
    fn empty_object_has_one_empty_chunk() {
        let (manifest, chunks) = Manifest::build(&[], 1024);
        assert_eq!(manifest.chunk_count(), 1);
        assert_eq!(manifest.length, 0);
        assert_eq!(manifest.assemble(&chunks).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn chunk_proofs_verify() {
        let data = vec![42u8; 10_000];
        let (manifest, chunks) = Manifest::build(&data, 1024);
        let n = manifest.chunk_count();
        for (i, chunk) in chunks.iter().enumerate() {
            let proof = manifest.prove_chunk(i).unwrap();
            assert!(Manifest::verify_chunk(
                &manifest.object_id,
                i,
                n,
                chunk,
                &proof
            ));
        }
    }

    #[test]
    fn tampered_chunk_rejected() {
        let data = vec![1u8; 5000];
        let (manifest, chunks) = Manifest::build(&data, 1024);
        let n = manifest.chunk_count();
        let proof = manifest.prove_chunk(0).unwrap();
        let mut evil = chunks[0].clone();
        evil.data[0] ^= 1;
        assert!(!Manifest::verify_chunk(
            &manifest.object_id,
            0,
            n,
            &evil,
            &proof
        ));
        // Re-addressed tampered chunk still fails the proof.
        let readdressed = Chunk::new(evil.data);
        assert!(!Manifest::verify_chunk(
            &manifest.object_id,
            0,
            n,
            &readdressed,
            &proof
        ));
    }

    #[test]
    fn assemble_rejects_wrong_order_and_missing() {
        // Modulus 251 (prime, coprime to the 1024 chunk size) guarantees
        // adjacent chunks differ, so the swap below is detectable.
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let (manifest, mut chunks) = Manifest::build(&data, 1024);
        chunks.swap(0, 1);
        assert!(manifest.assemble(&chunks).is_none());
        chunks.swap(0, 1);
        chunks.pop();
        assert!(manifest.assemble(&chunks).is_none());
    }

    #[test]
    fn object_id_depends_on_content() {
        let (m1, _) = Manifest::build(b"aaaa", 2);
        let (m2, _) = Manifest::build(b"aaab", 2);
        assert_ne!(m1.object_id, m2.object_id);
        let (m3, _) = Manifest::build(b"aaaa", 2);
        assert_eq!(m1.object_id, m3.object_id);
    }

    #[test]
    fn identical_chunks_dedupe_by_id() {
        let data = vec![7u8; 4096];
        let (manifest, chunks) = Manifest::build(&data, 1024);
        assert_eq!(manifest.chunk_count(), 4);
        assert!(chunks.iter().all(|c| c.id == chunks[0].id));
    }
}
