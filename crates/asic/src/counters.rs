//! The counter banks a switching ASIC maintains.
//!
//! Models the three counter families the paper polls (§4.1):
//!
//! * **Byte/packet counters** — cumulative per-port RX/TX counts. Reads are
//!   non-destructive; rates are computed from deltas, so a missed sampling
//!   interval loses resolution but never bytes ("we still capture the total
//!   number of bytes and correct timestamp", Table 1 caption).
//! * **Packet-size histograms** — per-port RMON-style bins ("The ASIC bins
//!   packets into several buckets", §5.3).
//! * **Peak buffer occupancy** — a read-and-clear register tracking the
//!   maximum shared-buffer fill since the last read, "so that we do not miss
//!   any congestion events" (§4.1).
//!
//! All cells use interior mutability (`Cell`) because the switch data path
//! writes them while the polling framework holds a shared reference.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use uburst_sim::counters::{CounterSink, FlushHook};
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;

/// RMON-style packet-size histogram bin boundaries (inclusive upper edges,
/// in frame bytes). Mirrors the etherStatsPkts64/128/256/512/1024/1518
/// groups merchant ASICs implement, plus an oversize bin.
pub const SIZE_BIN_EDGES: [u32; 6] = [64, 127, 255, 511, 1023, 1518];

/// Number of histogram bins (the edges above plus the oversize bin).
pub const N_SIZE_BINS: usize = SIZE_BIN_EDGES.len() + 1;

/// Human-readable labels for the size bins, index-aligned with counters.
pub const SIZE_BIN_LABELS: [&str; N_SIZE_BINS] = [
    "<=64",
    "65-127",
    "128-255",
    "256-511",
    "512-1023",
    "1024-1518",
    ">1518",
];

/// Maps a frame size to its histogram bin index.
pub fn size_bin(bytes: u32) -> usize {
    SIZE_BIN_EDGES
        .iter()
        .position(|&edge| bytes <= edge)
        .unwrap_or(N_SIZE_BINS - 1)
}

/// Names one readable counter instance on the ASIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterId {
    /// Cumulative bytes received on a port.
    RxBytes(PortId),
    /// Cumulative frames received on a port.
    RxPackets(PortId),
    /// Cumulative bytes transmitted out of a port.
    TxBytes(PortId),
    /// Cumulative frames transmitted out of a port.
    TxPackets(PortId),
    /// Cumulative congestion discards charged to an egress port.
    Drops(PortId),
    /// One bin of the received-frame size histogram.
    RxSizeHist(PortId, u8),
    /// One bin of the transmitted-frame size histogram.
    TxSizeHist(PortId, u8),
    /// Instantaneous shared-buffer occupancy in bytes.
    BufferLevel,
    /// Peak shared-buffer occupancy since the last read (read-and-clear).
    BufferPeak,
}

impl CounterId {
    /// Is reading this counter destructive (read-and-clear)?
    pub fn is_read_and_clear(self) -> bool {
        matches!(self, CounterId::BufferPeak)
    }

    /// Is this a cumulative (monotonically increasing) counter, as opposed
    /// to a gauge? Only cumulative counters wrap at the register width and
    /// need wrap-aware delta decoding on the collection side.
    pub fn is_cumulative(self) -> bool {
        !matches!(self, CounterId::BufferLevel | CounterId::BufferPeak)
    }
}

/// Cells per port in the flat bank: five scalar counters plus both
/// size histograms.
const PORT_STRIDE: usize = 5 + 2 * N_SIZE_BINS;

// Per-port cell offsets within a port's stride.
const OFF_RX_BYTES: usize = 0;
const OFF_RX_PACKETS: usize = 1;
const OFF_TX_BYTES: usize = 2;
const OFF_TX_PACKETS: usize = 3;
const OFF_DROPS: usize = 4;
const OFF_RX_HIST: usize = 5;
const OFF_TX_HIST: usize = 5 + N_SIZE_BINS;

/// The full counter state of one ASIC.
///
/// Implements [`CounterSink`] so a [`uburst_sim::switch::Switch`] writes it
/// directly; the telemetry framework reads it through [`AsicCounters::read`].
///
/// Storage is one flat `Vec<Cell<u64>>` — `PORT_STRIDE` cells per port,
/// then the buffer level and peak registers — so a resolved counter is a
/// single index away and a batch of counters reads contiguously-allocated
/// cells, like the register file it models.
pub struct AsicCounters {
    cells: Vec<Cell<u64>>,
    n_ports: usize,
    /// Settlement callbacks registered by hybrid-mode writers (see
    /// [`CounterSink::register_flush`]); run by [`AsicCounters::flush_to`]
    /// before the poller samples the bank.
    flush_hooks: RefCell<Vec<FlushHook>>,
    /// Read-and-clear registers with a live exclusive reader (see
    /// [`AsicCounters::claim_read_and_clear`]).
    claimed: RefCell<Vec<CounterId>>,
}

impl fmt::Debug for AsicCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsicCounters")
            .field("n_ports", &self.n_ports)
            .field("n_cells", &self.cells.len())
            .field("flush_hooks", &self.flush_hooks.borrow().len())
            .field("claimed", &self.claimed.borrow())
            .finish()
    }
}

impl AsicCounters {
    /// A zeroed counter bank for a switch with `n_ports` ports, wrapped for
    /// sharing between the switch and the poller.
    pub fn new_shared(n_ports: usize) -> Rc<Self> {
        Rc::new(Self::new(n_ports))
    }

    /// A zeroed counter bank for a switch with `n_ports` ports.
    pub fn new(n_ports: usize) -> Self {
        AsicCounters {
            cells: (0..n_ports * PORT_STRIDE + 2)
                .map(|_| Cell::new(0))
                .collect(),
            n_ports,
            flush_hooks: RefCell::new(Vec::new()),
            claimed: RefCell::new(Vec::new()),
        }
    }

    /// Claims exclusive use of every read-and-clear register in `ids` for
    /// one reader. Reading such a register re-seeds it, so two campaigns
    /// polling it over the same window would each see only the excursions
    /// since the *other's* last read; the bank refuses the second claim
    /// instead. All-or-nothing: on `Err` (carrying the first register
    /// already claimed) nothing was claimed. Non-destructive counters are
    /// ignored — any number of readers may share them. Pair with
    /// [`AsicCounters::release_read_and_clear`] when the reader is done.
    pub fn claim_read_and_clear(&self, ids: &[CounterId]) -> Result<(), CounterId> {
        let mut claimed = self.claimed.borrow_mut();
        let wanted = || ids.iter().copied().filter(|id| id.is_read_and_clear());
        if let Some(taken) = wanted().find(|id| claimed.contains(id)) {
            return Err(taken);
        }
        claimed.extend(wanted());
        Ok(())
    }

    /// Releases the claims [`AsicCounters::claim_read_and_clear`] took for
    /// `ids`, so a later campaign may poll those registers.
    pub fn release_read_and_clear(&self, ids: &[CounterId]) {
        self.claimed.borrow_mut().retain(|c| !ids.contains(c));
    }

    /// Runs every registered flush hook, so each switch counting into this
    /// bank settles the departures it parked up to `now`. The poller calls
    /// this before sampling. A switch registers its hook when it is built,
    /// under either engine, and both engines park departures in its book:
    /// the lazy one parks them at admission, so the hook settles those due
    /// by `now`; the per-packet one settles each at its own `TxComplete`,
    /// so the hook finds none due.
    pub fn flush_to(&self, now: Nanos) {
        for hook in self.flush_hooks.borrow().iter() {
            hook(self, now);
        }
    }

    /// Number of per-port banks.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    /// Total cells in the flat bank (a bank-geometry stamp).
    pub(crate) fn n_cells(&self) -> usize {
        self.cells.len()
    }

    fn port_base(&self, port: PortId) -> usize {
        let p = port.0 as usize;
        assert!(p < self.n_ports, "port {p} out of range");
        p * PORT_STRIDE
    }

    pub(crate) fn level_slot(&self) -> usize {
        self.n_ports * PORT_STRIDE
    }

    pub(crate) fn peak_slot(&self) -> usize {
        self.level_slot() + 1
    }

    /// Whether this bank has counter `id`: its port exists and, for a
    /// histogram counter, so does its bin. Reads nothing, so it clears no
    /// register; [`AsicCounters::read`] panics exactly where this is
    /// `false`.
    pub fn has(&self, id: CounterId) -> bool {
        let (port, bin) = match id {
            CounterId::RxBytes(p)
            | CounterId::RxPackets(p)
            | CounterId::TxBytes(p)
            | CounterId::TxPackets(p)
            | CounterId::Drops(p) => (Some(p), 0),
            CounterId::RxSizeHist(p, b) | CounterId::TxSizeHist(p, b) => (Some(p), b),
            CounterId::BufferLevel | CounterId::BufferPeak => (None, 0),
        };
        port.is_none_or(|p| usize::from(p.0) < self.n_ports) && usize::from(bin) < N_SIZE_BINS
    }

    /// The flat-cell index of a counter, validating its port (and
    /// histogram bin).
    pub(crate) fn slot_of(&self, id: CounterId) -> usize {
        match id {
            CounterId::RxBytes(p) => self.port_base(p) + OFF_RX_BYTES,
            CounterId::RxPackets(p) => self.port_base(p) + OFF_RX_PACKETS,
            CounterId::TxBytes(p) => self.port_base(p) + OFF_TX_BYTES,
            CounterId::TxPackets(p) => self.port_base(p) + OFF_TX_PACKETS,
            CounterId::Drops(p) => self.port_base(p) + OFF_DROPS,
            CounterId::RxSizeHist(p, b) => {
                assert!((b as usize) < N_SIZE_BINS, "bin {b} out of range");
                self.port_base(p) + OFF_RX_HIST + b as usize
            }
            CounterId::TxSizeHist(p, b) => {
                assert!((b as usize) < N_SIZE_BINS, "bin {b} out of range");
                self.port_base(p) + OFF_TX_HIST + b as usize
            }
            CounterId::BufferLevel => self.level_slot(),
            CounterId::BufferPeak => self.peak_slot(),
        }
    }

    /// Reads the cell at a resolved slot, honoring read-and-clear
    /// semantics for the peak register.
    pub(crate) fn read_slot(&self, slot: usize) -> u64 {
        let v = self.cells[slot].get();
        if slot == self.peak_slot() {
            self.cells[slot].set(self.cells[self.level_slot()].get());
        }
        v
    }

    /// Reads one counter. `BufferPeak` is destructive: it returns the peak
    /// since the previous read and re-seeds the register with the current
    /// level, exactly like the hardware register the paper used.
    pub fn read(&self, id: CounterId) -> u64 {
        self.read_slot(self.slot_of(id))
    }

    /// Reads a group of counters in order (one "poll" worth).
    pub fn read_group(&self, ids: &[CounterId]) -> Vec<u64> {
        ids.iter().map(|&id| self.read(id)).collect()
    }

    /// Peeks at the peak register without clearing (diagnostics only; the
    /// hardware analogue does not exist).
    pub fn peek_buffer_peak(&self) -> u64 {
        self.cells[self.peak_slot()].get()
    }

    /// One port's cells as a fixed-size window: a single bounds check per
    /// packet, after which the constant offsets index check-free.
    #[inline]
    fn port_cells(&self, port: PortId) -> &[Cell<u64>; PORT_STRIDE] {
        let base = self.port_base(port);
        (&self.cells[base..base + PORT_STRIDE])
            .try_into()
            .expect("window is PORT_STRIDE long")
    }
}

#[inline]
fn add(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

impl CounterSink for AsicCounters {
    fn count_rx(&self, port: PortId, bytes: u32) {
        let b = self.port_cells(port);
        add(&b[OFF_RX_BYTES], u64::from(bytes));
        add(&b[OFF_RX_PACKETS], 1);
        add(&b[OFF_RX_HIST + size_bin(bytes)], 1);
    }

    fn count_tx(&self, port: PortId, bytes: u32) {
        let b = self.port_cells(port);
        add(&b[OFF_TX_BYTES], u64::from(bytes));
        add(&b[OFF_TX_PACKETS], 1);
        add(&b[OFF_TX_HIST + size_bin(bytes)], 1);
    }

    fn count_drop(&self, port: PortId, _bytes: u32) {
        add(&self.port_cells(port)[OFF_DROPS], 1);
    }

    fn buffer_level(&self, used_bytes: u64) {
        self.cells[self.level_slot()].set(used_bytes);
        let peak = &self.cells[self.peak_slot()];
        if used_bytes > peak.get() {
            peak.set(used_bytes);
        }
    }

    fn register_flush(&self, hook: FlushHook) {
        self.flush_hooks.borrow_mut().push(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_bins_cover_edges() {
        assert_eq!(size_bin(0), 0);
        assert_eq!(size_bin(64), 0);
        assert_eq!(size_bin(65), 1);
        assert_eq!(size_bin(127), 1);
        assert_eq!(size_bin(128), 2);
        assert_eq!(size_bin(512), 4);
        assert_eq!(size_bin(1518), 5);
        assert_eq!(size_bin(1519), 6);
        assert_eq!(size_bin(9000), 6);
    }

    #[test]
    fn rx_accounting() {
        let c = AsicCounters::new(2);
        c.count_rx(PortId(0), 100);
        c.count_rx(PortId(0), 1500);
        c.count_rx(PortId(1), 64);
        assert_eq!(c.read(CounterId::RxBytes(PortId(0))), 1600);
        assert_eq!(c.read(CounterId::RxPackets(PortId(0))), 2);
        assert_eq!(c.read(CounterId::RxBytes(PortId(1))), 64);
        assert_eq!(c.read(CounterId::RxSizeHist(PortId(0), 1)), 1); // 100B
        assert_eq!(c.read(CounterId::RxSizeHist(PortId(0), 5)), 1); // 1500B
        assert_eq!(c.read(CounterId::RxSizeHist(PortId(1), 0)), 1); // 64B
    }

    #[test]
    fn tx_and_drop_accounting() {
        let c = AsicCounters::new(1);
        c.count_tx(PortId(0), 1000);
        c.count_drop(PortId(0), 1500);
        c.count_drop(PortId(0), 1500);
        assert_eq!(c.read(CounterId::TxBytes(PortId(0))), 1000);
        assert_eq!(c.read(CounterId::TxPackets(PortId(0))), 1);
        assert_eq!(c.read(CounterId::Drops(PortId(0))), 2);
    }

    #[test]
    fn reads_are_nondestructive_except_peak() {
        let c = AsicCounters::new(1);
        c.count_rx(PortId(0), 500);
        for _ in 0..3 {
            assert_eq!(c.read(CounterId::RxBytes(PortId(0))), 500);
        }
    }

    #[test]
    fn peak_register_semantics() {
        let c = AsicCounters::new(1);
        c.buffer_level(1000);
        c.buffer_level(5000);
        c.buffer_level(2000);
        assert_eq!(c.read(CounterId::BufferLevel), 2000);
        // First read returns the peak...
        assert_eq!(c.read(CounterId::BufferPeak), 5000);
        // ...and re-seeds with the current level.
        assert_eq!(c.read(CounterId::BufferPeak), 2000);
        // A new excursion is captured even if we never sample during it.
        c.buffer_level(9000);
        c.buffer_level(0);
        assert_eq!(c.read(CounterId::BufferPeak), 9000);
        assert_eq!(c.read(CounterId::BufferPeak), 0);
    }

    #[test]
    fn read_and_clear_registers_have_one_reader_at_a_time() {
        let c = AsicCounters::new(1);
        let bytes = [CounterId::TxBytes(PortId(0))];
        let with_peak = [CounterId::TxBytes(PortId(0)), CounterId::BufferPeak];
        // Cumulative counters are shared freely.
        assert_eq!(c.claim_read_and_clear(&bytes), Ok(()));
        assert_eq!(c.claim_read_and_clear(&bytes), Ok(()));
        assert_eq!(c.claim_read_and_clear(&with_peak), Ok(()));
        assert_eq!(
            c.claim_read_and_clear(&[CounterId::BufferPeak]),
            Err(CounterId::BufferPeak)
        );
        // Releasing a campaign that never held the register changes nothing.
        c.release_read_and_clear(&bytes);
        assert!(c.claim_read_and_clear(&with_peak).is_err());
        c.release_read_and_clear(&with_peak);
        assert_eq!(c.claim_read_and_clear(&[CounterId::BufferPeak]), Ok(()));
    }

    #[test]
    fn read_group_orders_values() {
        let c = AsicCounters::new(2);
        c.count_rx(PortId(0), 10);
        c.count_tx(PortId(1), 20);
        let vals = c.read_group(&[
            CounterId::RxBytes(PortId(0)),
            CounterId::TxBytes(PortId(1)),
            CounterId::Drops(PortId(0)),
        ]);
        assert_eq!(vals, vec![10, 20, 0]);
    }

    #[test]
    fn histogram_totals_match_packet_counts() {
        let c = AsicCounters::new(1);
        let sizes = [64, 65, 100, 300, 700, 1400, 1514, 2000];
        for s in sizes {
            c.count_rx(PortId(0), s);
        }
        let hist_total: u64 = (0..N_SIZE_BINS as u8)
            .map(|b| c.read(CounterId::RxSizeHist(PortId(0), b)))
            .sum();
        assert_eq!(hist_total, sizes.len() as u64);
        assert_eq!(c.read(CounterId::RxPackets(PortId(0))), sizes.len() as u64);
    }

    #[test]
    fn has_agrees_with_read_without_reading() {
        let c = AsicCounters::new(2);
        c.buffer_level(3_000);
        c.buffer_level(1_000);
        for id in [
            CounterId::TxBytes(PortId(1)),
            CounterId::Drops(PortId(0)),
            CounterId::RxSizeHist(PortId(1), (N_SIZE_BINS - 1) as u8),
            CounterId::BufferLevel,
            CounterId::BufferPeak,
        ] {
            assert!(c.has(id), "{id:?}");
        }
        for id in [
            CounterId::TxBytes(PortId(2)),
            CounterId::RxPackets(PortId(7)),
            CounterId::TxSizeHist(PortId(0), N_SIZE_BINS as u8),
            CounterId::RxSizeHist(PortId(9), 0),
        ] {
            assert!(!c.has(id), "{id:?}");
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.read(id)));
            assert!(
                read.is_err(),
                "read({id:?}) must panic where has() is false"
            );
        }
        // The query did not clear the read-and-clear peak register.
        assert_eq!(c.peek_buffer_peak(), 3_000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_port_panics() {
        let c = AsicCounters::new(1);
        c.read(CounterId::RxBytes(PortId(5)));
    }
}
