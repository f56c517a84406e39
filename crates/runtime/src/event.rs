//! [`Event`]: what a wall-clock node's inbox carries.
//!
//! Every wall-clock engine — nodes as threads over channels, nodes as
//! threads or processes over TCP — ends in the same place: one inbox per
//! node, drained by one event loop. This is the item that inbox yields,
//! defined once below every transport: the channel fabric's inbox is a
//! channel of these, the TCP fabric's is the node's sockets, decoded into
//! these by the loop that handles them, and a test harness's kill switch
//! pushes the same thing into either.

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
    /// A remote process asked for this process's span dump.
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
