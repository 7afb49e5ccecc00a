//! Packet metadata.
//!
//! The simulator never carries payload bytes — only the metadata that
//! queueing, routing, and the transport need. A data packet's wire size
//! includes Ethernet + IP + TCP framing so byte counters read like real
//! interface counters.

use crate::node::NodeId;
use crate::time::Nanos;

/// Identifies a transport flow (one direction of a connection).
///
/// The identifier doubles as the ECMP hash input, standing in for the
/// 5-tuple a real switch would hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Ethernet + IP + TCP framing bytes added to every data segment
/// (14 Ethernet + 4 FCS + 20 IP + 20 TCP + preamble/IFG are excluded since
/// serialization time models them via the link helper).
pub const HEADER_BYTES: u32 = 58;

/// Wire size of a bare ACK (headers only, rounded to minimum frame).
pub const ACK_BYTES: u32 = 64;

/// Standard maximum segment size for a 1500-byte MTU.
pub const MSS: u32 = 1442;

/// Full-size frame on the wire: MSS + framing = 1500 B MTU equivalent.
pub const MTU_FRAME: u32 = MSS + HEADER_BYTES;

/// What a packet is, from the transport's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A transport data segment.
    Data {
        /// Zero-based segment index within the flow.
        seq: u32,
        /// Total number of segments in the flow (so the receiver knows when
        /// the flow is complete without a separate control channel).
        total: u32,
        /// Total application bytes in the flow.
        flow_bytes: u64,
        /// Opaque application tag carried end-to-end (e.g. request id).
        tag: u64,
        /// True if this is a retransmission (excluded from goodput stats).
        retx: bool,
    },
    /// A cumulative acknowledgement for a flow.
    Ack {
        /// Next expected segment index (all segments `< cum` received).
        cum: u32,
        /// ECN echo: some data covered by this ACK arrived CE-marked.
        ece: bool,
    },
    /// An unreliable datagram, delivered directly to the application.
    Raw {
        /// Opaque application tag.
        tag: u64,
    },
}

/// A simulated packet.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Transport-level role of the packet.
    pub kind: PacketKind,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes on the wire (headers included).
    pub size: u32,
    /// Time the packet entered the network at its source.
    pub created: Nanos,
    /// ECN Congestion Experienced mark, set by switches whose queue
    /// exceeds their marking threshold.
    pub ce: bool,
}

impl Packet {
    /// The key switches hash for ECMP. Forward and reverse directions of a
    /// connection hash differently, as real 5-tuple hashing would.
    pub fn ecmp_key(&self) -> u64 {
        match self.kind {
            PacketKind::Ack { .. } => self.flow.0 ^ 0x9e37_79b9_7f4a_7c15,
            _ => self.flow.0,
        }
    }

    /// True for transport data segments (the "goodput direction").
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }
}

/// Splits a flow of `bytes` application bytes into MSS-sized segments and
/// reports the wire size of segment `seq`.
pub fn segment_wire_size(bytes: u64, seq: u32) -> u32 {
    let total = segments_for(bytes);
    assert!(seq < total, "segment {seq} of a {total}-segment flow");
    if seq + 1 < total {
        MTU_FRAME
    } else {
        // Last (or only) segment carries the remainder.
        let rem = (bytes - u64::from(seq) * u64::from(MSS)) as u32;
        (rem + HEADER_BYTES).max(ACK_BYTES)
    }
}

/// Number of MSS-sized segments needed for `bytes` application bytes.
/// A zero-byte flow still sends one (empty) segment so completion is
/// observable.
pub fn segments_for(bytes: u64) -> u32 {
    if bytes == 0 {
        return 1;
    }
    bytes.div_ceil(u64::from(MSS)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_round_up() {
        assert_eq!(segments_for(0), 1);
        assert_eq!(segments_for(1), 1);
        assert_eq!(segments_for(u64::from(MSS)), 1);
        assert_eq!(segments_for(u64::from(MSS) + 1), 2);
        assert_eq!(segments_for(10 * u64::from(MSS)), 10);
    }

    #[test]
    fn wire_sizes_cover_flow() {
        let bytes = 3 * u64::from(MSS) + 100;
        let total = segments_for(bytes);
        assert_eq!(total, 4);
        assert_eq!(segment_wire_size(bytes, 0), MTU_FRAME);
        assert_eq!(segment_wire_size(bytes, 2), MTU_FRAME);
        assert_eq!(segment_wire_size(bytes, 3), 100 + HEADER_BYTES);
    }

    #[test]
    fn tiny_flow_gets_min_frame() {
        assert_eq!(segment_wire_size(0, 0), ACK_BYTES);
        assert_eq!(segment_wire_size(1, 0), ACK_BYTES);
        assert_eq!(segment_wire_size(20, 0), 20 + HEADER_BYTES);
    }

    #[test]
    #[should_panic(expected = "segment 1 of a 1-segment flow")]
    fn segment_past_the_flow_end_is_refused_in_release() {
        // One full segment: `seq = 1` leaves a zero remainder, so without
        // the check this prices a frame the flow does not have.
        segment_wire_size(u64::from(MSS), 1);
    }

    #[test]
    fn ecmp_key_differs_by_direction() {
        let mk = |kind| Packet {
            flow: FlowId(77),
            kind,
            src: NodeId(0),
            dst: NodeId(1),
            size: 100,
            created: Nanos::ZERO,
            ce: false,
        };
        let data = mk(PacketKind::Data {
            seq: 0,
            total: 1,
            flow_bytes: 10,
            tag: 0,
            retx: false,
        });
        let ack = mk(PacketKind::Ack { cum: 1, ece: false });
        assert_ne!(data.ecmp_key(), ack.ecmp_key());
        assert!(data.is_data());
        assert!(!ack.is_data());
    }
}
