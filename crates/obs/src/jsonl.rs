//! Canonical JSONL rendering of trace events.
//!
//! One event renders to exactly one line with fixed key order and integer
//! fields only — so equal events render to equal bytes. The canonical
//! trace order is `(run, sim-time, rendered line)`, and because the line
//! carries **no sequence or uid fields**, it depends only on what happened
//! at each instant, not on the order the simulator happened to record it.

use crate::event::{PktRef, TraceEvent, GROUP_NONE};
use mcc_simcore::SimTime;

fn push_field(out: &mut String, key: &str, val: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&val.to_string());
}

fn push_pkt(out: &mut String, p: &PktRef) {
    push_field(out, "node", p.node as u64);
    if p.link != u32::MAX {
        push_field(out, "link", p.link as u64);
    }
    push_field(out, "flow", p.flow as u64);
    push_field(out, "src", p.src as u64);
    if p.group != GROUP_NONE {
        push_field(out, "group", p.group as u64);
    }
    if p.agent != u32::MAX {
        push_field(out, "agent", p.agent as u64);
    }
    push_field(out, "bits", p.size_bits);
}

/// Render one event as a canonical JSONL line (no trailing newline).
/// `run` is the index of the `run_secs` call within the experiment, so
/// multi-phase experiments keep their phases apart.
pub fn render(run: u32, at: SimTime, ev: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"run\":");
    out.push_str(&run.to_string());
    out.push_str(",\"t\":");
    out.push_str(&at.as_nanos().to_string());
    out.push_str(",\"ev\":\"");
    out.push_str(ev.kind());
    out.push('"');
    match ev {
        TraceEvent::PktEnqueue(p)
        | TraceEvent::PktTransmit(p)
        | TraceEvent::PktMark(p)
        | TraceEvent::PktDeliver(p) => push_pkt(&mut out, p),
        TraceEvent::PktDrop(p, reason) => {
            push_pkt(&mut out, p);
            out.push_str(",\"reason\":\"");
            out.push_str(reason.as_str());
            out.push('"');
        }
        TraceEvent::SigmaFilter {
            node,
            iface,
            group,
            layer,
            allowed,
        } => {
            push_field(&mut out, "node", *node as u64);
            push_field(&mut out, "iface", *iface as u64);
            push_field(&mut out, "group", *group as u64);
            push_field(&mut out, "layer", *layer as u64);
            out.push_str(",\"allowed\":");
            out.push_str(if *allowed { "true" } else { "false" });
        }
        TraceEvent::SigmaLockout {
            node,
            iface,
            group,
            until_slot,
        } => {
            push_field(&mut out, "node", *node as u64);
            push_field(&mut out, "iface", *iface as u64);
            push_field(&mut out, "group", *group as u64);
            push_field(&mut out, "until_slot", *until_slot);
        }
        TraceEvent::SigmaAlarm {
            node,
            iface,
            group,
            slot,
        } => {
            push_field(&mut out, "node", *node as u64);
            push_field(&mut out, "iface", *iface as u64);
            push_field(&mut out, "group", *group as u64);
            push_field(&mut out, "slot", *slot);
        }
        TraceEvent::FlidLayer {
            agent,
            from_layer,
            to_layer,
            slot,
        } => {
            push_field(&mut out, "agent", *agent as u64);
            push_field(&mut out, "from", *from_layer as u64);
            push_field(&mut out, "to", *to_layer as u64);
            push_field(&mut out, "slot", *slot);
        }
        TraceEvent::Join { agent, group } | TraceEvent::Leave { agent, group } => {
            push_field(&mut out, "agent", *agent as u64);
            push_field(&mut out, "group", *group as u64);
        }
        TraceEvent::KeyInstall { node, group, slot } => {
            push_field(&mut out, "node", *node as u64);
            push_field(&mut out, "group", *group as u64);
            push_field(&mut out, "slot", *slot);
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    fn p() -> PktRef {
        PktRef {
            node: 7,
            link: 3,
            flow: 1,
            src: 2,
            group: 900,
            agent: u32::MAX,
            size_bits: 8000,
        }
    }

    #[test]
    fn packet_line_is_canonical() {
        let line = render(0, SimTime::from_nanos(1500), &TraceEvent::PktEnqueue(p()));
        assert_eq!(
            line,
            r#"{"run":0,"t":1500,"ev":"pkt_enqueue","node":7,"link":3,"flow":1,"src":2,"group":900,"bits":8000}"#
        );
    }

    #[test]
    fn unicast_and_local_fields_are_elided() {
        let mut q = p();
        q.group = GROUP_NONE;
        q.link = u32::MAX;
        let line = render(1, SimTime::ZERO, &TraceEvent::PktDeliver(q));
        assert!(!line.contains("group"));
        assert!(!line.contains("link"));
        assert!(!line.contains("agent"));
        assert!(line.starts_with(r#"{"run":1,"t":0,"ev":"pkt_deliver""#));
    }

    #[test]
    fn delivery_line_names_the_receiving_agent() {
        let mut q = p();
        q.link = u32::MAX;
        q.agent = 12;
        let line = render(0, SimTime::ZERO, &TraceEvent::PktDeliver(q));
        assert!(line.contains(r#""agent":12"#));
    }

    #[test]
    fn drop_line_carries_reason() {
        let line = render(
            0,
            SimTime::from_nanos(9),
            &TraceEvent::PktDrop(p(), DropReason::EdgeFilter),
        );
        assert!(line.ends_with(r#""reason":"edge_filter"}"#));
    }

    #[test]
    fn protocol_lines_render() {
        let f = render(
            0,
            SimTime::from_nanos(1),
            &TraceEvent::SigmaFilter {
                node: 1,
                iface: 2,
                group: 900,
                layer: 3,
                allowed: false,
            },
        );
        assert_eq!(
            f,
            r#"{"run":0,"t":1,"ev":"sigma_filter","node":1,"iface":2,"group":900,"layer":3,"allowed":false}"#
        );
        let l = render(
            0,
            SimTime::from_nanos(2),
            &TraceEvent::FlidLayer {
                agent: 5,
                from_layer: 1,
                to_layer: 4,
                slot: 12,
            },
        );
        assert_eq!(
            l,
            r#"{"run":0,"t":2,"ev":"flid_layer","agent":5,"from":1,"to":4,"slot":12}"#
        );
    }

    #[test]
    fn membership_lines_render() {
        let j = render(
            0,
            SimTime::from_nanos(3),
            &TraceEvent::Join {
                agent: 9,
                group: 900,
            },
        );
        assert_eq!(j, r#"{"run":0,"t":3,"ev":"join","agent":9,"group":900}"#);
        let l = render(
            0,
            SimTime::from_nanos(4),
            &TraceEvent::Leave {
                agent: 9,
                group: 900,
            },
        );
        assert_eq!(l, r#"{"run":0,"t":4,"ev":"leave","agent":9,"group":900}"#);
        let k = render(
            0,
            SimTime::from_nanos(5),
            &TraceEvent::KeyInstall {
                node: 2,
                group: 901,
                slot: 7,
            },
        );
        assert_eq!(
            k,
            r#"{"run":0,"t":5,"ev":"key_install","node":2,"group":901,"slot":7}"#
        );
    }

    #[test]
    fn equal_events_render_to_equal_bytes() {
        let a = render(3, SimTime::from_nanos(10), &TraceEvent::PktTransmit(p()));
        let b = render(3, SimTime::from_nanos(10), &TraceEvent::PktTransmit(p()));
        assert_eq!(a, b);
    }
}
