//! Bounded delivery dedup: per-client high-water mark plus a sliding
//! out-of-order window (the IPsec/DTLS anti-replay shape).
//!
//! The service's original dedup kept every `(client, seq)` pair it ever
//! accepted in a `HashSet` — memory grew one entry per report for the
//! life of the service, which an always-on aggregation endpoint (months of
//! uptime, millions of clients, unbounded reports per client) cannot
//! afford. A [`ReplayWindow`] stores a fixed 20 bytes per client no matter
//! how many reports that client ever sends: the highest sequence number
//! observed plus one bit for each of the [`ReplayWindow::WIDTH`] most
//! recent sequence numbers below it.
//!
//! The price is a semantic corner: a sequence number more than `WIDTH`
//! below the client's high-water mark is indistinguishable from a
//! duplicate and is dropped ([`Delivery::Stale`]). That is the safe
//! direction for an at-least-once transport — dropping a stale report
//! loses at most one run's worth of evidence (cumulative-mode evidence is
//! redundant by design; §5 needs *populations* of reports), while
//! *accepting* a redelivered one would double-count evidence and break
//! service-level idempotence. Real transports reorder by queue depths,
//! not by hundreds of messages, so a 128-wide window makes the corner
//! unobservable in practice.

/// What observing one sequence number means for the report carrying it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// First sight of this sequence number: process the report.
    Fresh,
    /// Already accepted (inside the window): drop the redelivery.
    Duplicate,
    /// Below the window floor — indistinguishable from a duplicate, so
    /// dropped (see the module docs for why this is the safe direction).
    Stale,
}

impl Delivery {
    /// `true` for anything that must not be processed again.
    #[must_use]
    pub fn is_drop(self) -> bool {
        self != Delivery::Fresh
    }
}

/// Anti-replay state for one client: high-water mark + 128-bit window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayWindow {
    /// Bit `d` is set iff sequence number `high - d` was accepted.
    bits: u128,
    /// Highest sequence number observed (meaningful once `bits != 0`).
    high: u32,
}

impl ReplayWindow {
    /// Sequence numbers the window distinguishes below the high-water
    /// mark.
    pub const WIDTH: u32 = 128;

    /// A window that has observed nothing.
    #[must_use]
    pub fn new() -> Self {
        ReplayWindow::default()
    }

    /// Classifies `seq` and, if fresh, records it.
    pub fn observe(&mut self, seq: u32) -> Delivery {
        if self.bits == 0 {
            // Nothing observed yet (bit 0 of a non-empty window is always
            // set, so `bits == 0` is an unambiguous emptiness flag).
            self.high = seq;
            self.bits = 1;
            return Delivery::Fresh;
        }
        if seq > self.high {
            let advance = seq - self.high;
            self.bits = if advance >= Self::WIDTH {
                0
            } else {
                self.bits << advance
            };
            self.bits |= 1;
            self.high = seq;
            return Delivery::Fresh;
        }
        let distance = self.high - seq;
        if distance >= Self::WIDTH {
            return Delivery::Stale;
        }
        let mask = 1u128 << distance;
        if self.bits & mask != 0 {
            Delivery::Duplicate
        } else {
            self.bits |= mask;
            Delivery::Fresh
        }
    }

    /// The raw `(bits, high)` state for snapshot serialization. Together
    /// with [`ReplayWindow::from_parts`] this is the durability hook: a
    /// restored window classifies every future sequence number exactly as
    /// the original would, which is what makes WAL re-ingest after a
    /// crash idempotent.
    #[must_use]
    pub fn to_parts(&self) -> (u128, u32) {
        (self.bits, self.high)
    }

    /// Rebuilds a window from [`ReplayWindow::to_parts`] state. `bits ==
    /// 0` reproduces the never-observed window regardless of `high`, the
    /// same emptiness convention `observe` relies on.
    #[must_use]
    pub fn from_parts(bits: u128, high: u32) -> Self {
        ReplayWindow { bits, high }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_is_all_fresh_then_all_duplicate() {
        let mut w = ReplayWindow::new();
        for seq in 0..200 {
            assert_eq!(w.observe(seq), Delivery::Fresh, "seq {seq}");
        }
        // Recent redeliveries are recognized...
        for seq in 100..200 {
            assert_eq!(w.observe(seq), Delivery::Duplicate, "seq {seq}");
        }
        // ...and ancient ones are dropped as stale, never reprocessed.
        assert_eq!(w.observe(10), Delivery::Stale);
    }

    #[test]
    fn out_of_order_within_window_is_accepted_once() {
        let mut w = ReplayWindow::new();
        assert_eq!(w.observe(50), Delivery::Fresh);
        assert_eq!(w.observe(10), Delivery::Fresh, "39 behind: in window");
        assert_eq!(w.observe(10), Delivery::Duplicate);
        assert_eq!(w.observe(49), Delivery::Fresh);
        assert_eq!(w.observe(50), Delivery::Duplicate);
        // A jump forward slides the window; 10 falls off the floor but
        // 49/50 (now 100-101 behind) are still remembered as accepted.
        assert_eq!(w.observe(150), Delivery::Fresh);
        assert_eq!(w.observe(10), Delivery::Stale);
        assert_eq!(w.observe(50), Delivery::Duplicate);
        assert_eq!(w.observe(49), Delivery::Duplicate);
        // Distance WIDTH - 1 is the last distinguishable slot; 23 was
        // never sent, so it is still fresh there.
        assert_eq!(w.observe(150 - (ReplayWindow::WIDTH - 1)), Delivery::Fresh);
        // Distance WIDTH is below the floor.
        assert_eq!(w.observe(150 - ReplayWindow::WIDTH), Delivery::Stale);
    }

    #[test]
    fn giant_jumps_clear_the_window() {
        let mut w = ReplayWindow::new();
        assert_eq!(w.observe(0), Delivery::Fresh);
        assert_eq!(w.observe(u32::MAX), Delivery::Fresh);
        assert_eq!(w.observe(u32::MAX), Delivery::Duplicate);
        assert_eq!(w.observe(u32::MAX - 1), Delivery::Fresh);
        assert_eq!(w.observe(0), Delivery::Stale);
    }

    #[test]
    fn zero_seq_first_contact_works() {
        let mut w = ReplayWindow::new();
        assert_eq!(w.observe(0), Delivery::Fresh);
        assert_eq!(w.observe(0), Delivery::Duplicate);
        assert_eq!(w.observe(1), Delivery::Fresh);
        assert_eq!(w.observe(0), Delivery::Duplicate);
    }

    /// Snapshot/restore round trip: the restored window must classify an
    /// adversarial probe sequence identically to the original.
    #[test]
    fn parts_round_trip_preserves_classification() {
        let mut w = ReplayWindow::new();
        for seq in [5u32, 3, 9, 9, 200, 150, 80] {
            w.observe(seq);
        }
        let (bits, high) = w.to_parts();
        let mut restored = ReplayWindow::from_parts(bits, high);
        for probe in [0u32, 3, 5, 80, 81, 150, 199, 200, 201, 500] {
            assert_eq!(
                w.observe(probe),
                restored.observe(probe),
                "restored window diverged at probe {probe}"
            );
        }
        // An empty window round trips to an empty window.
        let (bits, high) = ReplayWindow::new().to_parts();
        let mut fresh = ReplayWindow::from_parts(bits, high);
        assert_eq!(fresh.observe(0), Delivery::Fresh);
    }

    /// The whole point of the type: constant size, regardless of traffic.
    #[test]
    fn window_is_constant_size() {
        assert!(
            std::mem::size_of::<ReplayWindow>() <= 32,
            "ReplayWindow grew: {} bytes",
            std::mem::size_of::<ReplayWindow>()
        );
    }
}
