//! [`Event`]: what a wall-clock node's inbox carries.
//!
//! Every wall-clock engine — nodes as threads over channels, nodes as
//! threads or processes over TCP — ends in the same place: one channel per
//! node, drained by one event loop. This is the item type of that channel,
//! defined once below every transport so a socket reader thread, a
//! channel-fabric sender, and a test harness's kill switch all push the
//! same thing and no thread exists only to re-wrap one envelope as another.

use crate::runtime::NodeId;

/// One delivery into a node's inbox, generic over the protocol message.
#[derive(Debug)]
pub enum Event<M> {
    /// A protocol message from another node.
    Msg {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A remote process asked for this process's TimeTrace dump.
    TraceRequest {
        /// The asking node (the reply is routed back here).
        from: NodeId,
    },
    /// The dump text answering an earlier trace request.
    TraceReply {
        /// The answering node.
        from: NodeId,
        /// Rendered dump text.
        text: String,
    },
    /// Crash the node: its loop exits at once, without a report.
    Kill,
    /// Graceful stop: the loop flushes, reports its final state and exits.
    Shutdown,
}
