//! Identity codes and timer multiplexing.
//!
//! Every communication endpoint (singleton client, server element, Group
//! Manager element) has a globally unique `u64` *endpoint code* used for:
//! BFT client identities, pairwise key derivation, and addressing in the
//! fabric. Timer kinds multiplex several logical timers onto simnet's one
//! `u64` timer discriminant.

use itdos_bft::config::ClientId;
use itdos_groupmgr::membership::Endpoint;
use itdos_vote::vote::SenderId;

/// Offset separating element codes from singleton-client codes.
pub const ELEMENT_CODE_BASE: u64 = 1_000_000;

/// The endpoint code for a singleton client id.
pub fn singleton_code(id: u64) -> u64 {
    debug_assert!(
        id < ELEMENT_CODE_BASE,
        "singleton ids must stay below the element base"
    );
    id
}

/// The endpoint code for a domain element.
pub fn element_code(id: SenderId) -> u64 {
    ELEMENT_CODE_BASE + id.0 as u64
}

/// The endpoint code of any [`Endpoint`].
pub fn endpoint_code(endpoint: Endpoint) -> u64 {
    match endpoint {
        Endpoint::Singleton(id) => singleton_code(id),
        Endpoint::Element(e) => element_code(e),
    }
}

/// Decodes an endpoint code.
pub fn code_endpoint(code: u64) -> Endpoint {
    if code >= ELEMENT_CODE_BASE {
        Endpoint::Element(SenderId((code - ELEMENT_CODE_BASE) as u32))
    } else {
        Endpoint::Singleton(code)
    }
}

/// The BFT client identity an endpoint uses toward any group.
pub fn bft_client_id(code: u64) -> ClientId {
    ClientId(code)
}

/// Timer tags (low 3 bits of the timer kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerTag {
    /// PBFT view-change timer; param = epoch.
    View,
    /// Outbound BFT client retransmission; param = target domain id.
    Retransmit,
    /// Delayed (slow-fault) reply release; param = stash slot.
    DelayedSend,
    /// Singleton-client call timer, re-armed while the call is undecided
    /// so the simulator does not quiesce under it; param = request id.
    ClientRetry,
}

const TAG_VIEW: u64 = 1;
const TAG_RETRANSMIT: u64 = 2;
const TAG_DELAYED: u64 = 3;
const TAG_CLIENT: u64 = 5;

/// Packs a tag and parameter into a timer kind.
pub fn pack_timer(tag: TimerTag, param: u64) -> u64 {
    let t = match tag {
        TimerTag::View => TAG_VIEW,
        TimerTag::Retransmit => TAG_RETRANSMIT,
        TimerTag::DelayedSend => TAG_DELAYED,
        TimerTag::ClientRetry => TAG_CLIENT,
    };
    (param << 3) | t
}

/// Unpacks a timer kind. Returns `None` for unknown tags.
pub fn unpack_timer(kind: u64) -> Option<(TimerTag, u64)> {
    let tag = match kind & 7 {
        TAG_VIEW => TimerTag::View,
        TAG_RETRANSMIT => TimerTag::Retransmit,
        TAG_DELAYED => TimerTag::DelayedSend,
        TAG_CLIENT => TimerTag::ClientRetry,
        _ => return None,
    };
    Some((tag, kind >> 3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_codes_round_trip() {
        assert_eq!(code_endpoint(singleton_code(42)), Endpoint::Singleton(42));
        assert_eq!(
            code_endpoint(element_code(SenderId(7))),
            Endpoint::Element(SenderId(7))
        );
    }

    #[test]
    fn codes_are_disjoint() {
        assert_ne!(singleton_code(5), element_code(SenderId(5)));
    }

    #[test]
    fn timer_packing_round_trips() {
        for (tag, param) in [
            (TimerTag::View, 0u64),
            (TimerTag::Retransmit, 12345),
            (TimerTag::DelayedSend, u64::MAX >> 3),
            (TimerTag::ClientRetry, 9),
        ] {
            let kind = pack_timer(tag, param);
            assert_eq!(unpack_timer(kind), Some((tag, param)));
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(unpack_timer(0), None);
        assert_eq!(unpack_timer(4), None);
        assert_eq!(unpack_timer(6), None);
    }

    #[test]
    fn bft_client_ids_track_codes() {
        assert_eq!(bft_client_id(element_code(SenderId(3))).0, 1_000_003);
    }
}
