//! The trace crate's message vocabulary against the protocol's. `scd-trace`
//! does not depend on `scd-protocol`, so its table of message labels
//! (`scd_trace::attrib::MESSAGES`) is held to `MsgKind::LABELS` here, in
//! a crate that sees both.

use scd_protocol::MsgKind;
use scd_trace::attrib::{message, MESSAGES};
use scd_trace::{AttribClass, AttribParams};

/// The classification as two string matches, the form it had before the
/// table existed: the oracle the table's class column, and the wire
/// model's class and bytes, must reproduce.
fn classify_by_match(label: &str) -> AttribClass {
    match label {
        "read_reply" | "write_reply" | "transfer_reply" | "tardis_read_reply"
        | "tardis_write_reply" | "llc_write_ack" => AttribClass::Reply,
        "nack" => AttribClass::Nack,
        "inval" => AttribClass::Invalidation,
        "inval_ack" | "dir_flush_ack" => AttribClass::Ack,
        "writeback" | "sharing_writeback" => AttribClass::Writeback,
        "dir_flush" => AttribClass::SparseFlush,
        "lock_req" | "lock_grant" | "lock_retry" | "unlock_req" | "barrier_arrive"
        | "barrier_release" => AttribClass::Sync,
        "renew_req" | "renew_reply" => AttribClass::Renewal,
        "llc_fill" => AttribClass::LlcFill,
        _ => AttribClass::Request,
    }
}

/// The data column's oracle, as [`classify_by_match`].
fn carries_data_by_match(label: &str) -> bool {
    matches!(
        label,
        "read_reply"
            | "write_reply"
            | "transfer_reply"
            | "writeback"
            | "sharing_writeback"
            | "tardis_read_reply"
            | "tardis_write_reply"
            | "llc_fill"
    )
}

#[test]
fn the_message_table_is_the_protocols_label_list() {
    let table: Vec<&str> = MESSAGES.iter().map(|m| m.0).collect();
    assert_eq!(table, MsgKind::LABELS, "same labels, same order");
}

#[test]
fn the_message_table_reproduces_the_string_matches() {
    for label in MsgKind::LABELS {
        let row = message(label).unwrap_or_else(|| panic!("`{label}` has no row"));
        assert_eq!(row.1, classify_by_match(label), "{label}");
        assert_eq!(row.2, carries_data_by_match(label), "{label}");
        let cost = AttribParams::default().cost(label);
        assert_eq!(cost.class, classify_by_match(label), "{label}");
        let payload = if carries_data_by_match(label) { 16 } else { 0 };
        assert_eq!(cost.bytes, 8 + payload, "{label}");
    }
    // A label outside the vocabulary still counts as a header-only request.
    let future = AttribParams::default().cost("future_req");
    assert_eq!((future.class, future.bytes), (AttribClass::Request, 8));
}
