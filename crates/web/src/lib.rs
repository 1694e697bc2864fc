//! # agora-web — hostless web applications
//!
//! §3.4's "novel browser-based web architecture in which decentralized
//! applications are no longer hosted by specific servers", as runnable
//! mechanisms:
//!
//! * [`site`] — key-addressed sites (ZeroNet), signed versioned manifests,
//!   Beaker-style fork/merge with conflict reporting.
//! * [`swarm`] — tracker-based peer discovery and BitTorrent-style piece
//!   exchange where visitors become seeders, so a site outlives its origin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod site;
pub mod swarm;

pub use site::{
    merge_files, MergeConflict, Piece, SealedManifest, SignedManifest, SiteBundle, SiteFile,
    SiteManifest, SitePublisher, SITE_PIECE_SIZE,
};
pub use swarm::{SwarmMsg, SwarmNode, VisitResult};
