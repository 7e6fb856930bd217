//! Per-peer simulator state.

use crate::piece::Bitfield;

/// A leecher's (or the seeder's) full state.
#[derive(Debug, Clone)]
pub struct Peer {
    /// Upload capacity, KiB/s.
    pub upload_capacity: f64,
    /// Piece possession.
    pub bitfield: Bitfield,
    /// Partial progress (KiB) toward each piece.
    pub piece_progress: Vec<f64>,
    /// Currently unchoked peers (indices into the swarm).
    pub unchoked: Vec<usize>,
    /// The current optimistic-unchoke target, if any.
    pub optimistic: Option<usize>,
    /// Bytes (KiB) received from each peer during the current rechoke
    /// window.
    pub window_received: Vec<f64>,
    /// Receive rate (KiB/s) from each peer measured over the last
    /// completed window — the ranking signal.
    pub rate_estimate: Vec<f64>,
    /// Consecutive rechoke windows in which each peer sent us data
    /// (the Loyal ranking signal).
    pub loyalty: Vec<u32>,
    /// Tick at which the download completed (None while leeching).
    pub completed_at: Option<u64>,
    /// Whether the peer has left the swarm.
    pub departed: bool,
}

impl Peer {
    /// Creates a fresh leecher.
    #[must_use]
    pub fn leecher(upload_capacity: f64, pieces: usize, swarm_size: usize) -> Self {
        Self {
            upload_capacity,
            bitfield: Bitfield::empty(pieces),
            piece_progress: vec![0.0; pieces],
            // Sized once: a rechoke unchokes at most every other peer,
            // so the tick loop never grows it.
            unchoked: Vec::with_capacity(swarm_size),
            optimistic: None,
            window_received: vec![0.0; swarm_size],
            rate_estimate: vec![0.0; swarm_size],
            loyalty: vec![0; swarm_size],
            completed_at: None,
            departed: false,
        }
    }

    /// Creates the seeder.
    #[must_use]
    pub fn seeder(upload_capacity: f64, pieces: usize, swarm_size: usize) -> Self {
        Self {
            bitfield: Bitfield::full(pieces),
            ..Self::leecher(upload_capacity, pieces, swarm_size)
        }
    }

    /// Whether this peer still participates (not departed).
    #[must_use]
    pub fn active(&self) -> bool {
        !self.departed
    }

    /// Whether this peer is a seed (has everything).
    #[must_use]
    pub fn is_seed(&self) -> bool {
        self.bitfield.complete()
    }

    /// Closes a rechoke window: converts window receipts into rate
    /// estimates and loyalty streaks, then clears the window.
    pub fn roll_window(&mut self, window_seconds: f64) {
        for ((rate, received), loyal) in self
            .rate_estimate
            .iter_mut()
            .zip(&mut self.window_received)
            .zip(&mut self.loyalty)
        {
            *rate = *received / window_seconds;
            if *received > 0.0 {
                *loyal += 1;
            } else {
                *loyal = 0;
            }
            *received = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leecher_starts_empty() {
        let p = Peer::leecher(50.0, 20, 51);
        assert_eq!(p.bitfield.count(), 0);
        assert!(!p.is_seed());
        assert!(p.active());
        assert_eq!(p.rate_estimate.len(), 51);
    }

    #[test]
    fn seeder_is_complete() {
        let s = Peer::seeder(128.0, 20, 51);
        assert!(s.is_seed());
        assert!(s.bitfield.complete());
    }

    #[test]
    fn roll_window_computes_rates_and_loyalty() {
        let mut p = Peer::leecher(50.0, 4, 3);
        p.window_received[1] = 100.0;
        p.roll_window(10.0);
        assert_eq!(p.rate_estimate[1], 10.0);
        assert_eq!(p.loyalty[1], 1);
        assert_eq!(p.window_received[1], 0.0);
        // A silent window resets loyalty.
        p.roll_window(10.0);
        assert_eq!(p.loyalty[1], 0);
        assert_eq!(p.rate_estimate[1], 0.0);
    }
}
