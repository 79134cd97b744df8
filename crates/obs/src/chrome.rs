//! Chrome-trace (`chrome://tracing` / Perfetto) JSON exporter.
//!
//! Nodes map to trace *processes* (`pid`), tracks — simulated threads or
//! the NIC lane — map to trace *threads* (`tid`). Spans become `"X"`
//! (complete) events with a duration; instants become `"i"` events with
//! thread scope; causal edges become Perfetto *flow* pairs (`"s"` at the
//! cause, `"f"` at the effect) so arrows connect the lanes in the
//! timeline. Timestamps are simulated microseconds (nanoseconds / 1000).
//! Identical runs export byte-identical files (flow ids are assigned
//! sequentially in recording order); the document is written in the
//! compact layout.

use std::collections::BTreeSet;

use crate::event::{Event, EventRecord, NIC_TRACK};
use crate::json::Value;
use crate::obj;

/// Nanoseconds as microseconds (`7_800` → `7.8`).
fn us(ns: u64) -> Value {
    Value::Num(ns as f64 / 1_000.0)
}

fn track_label(track: u64) -> String {
    if track == NIC_TRACK {
        "nic".to_string()
    } else {
        format!("t{track}")
    }
}

/// Renders `events` as a Chrome-trace JSON document.
///
/// Metadata (`process_name`/`thread_name`) is emitted first, sorted by
/// `(node, track)`; the events follow in recording order.
pub fn export(events: &[EventRecord]) -> String {
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    let mut tracks: BTreeSet<(u32, u64)> = BTreeSet::new();
    for e in events {
        nodes.insert(e.node.0);
        tracks.insert((e.node.0, e.track));
        if let Event::Edge { src_node, src_track, .. } = e.event {
            nodes.insert(src_node);
            tracks.insert((src_node, src_track));
        }
    }
    let mut trace = Vec::with_capacity(nodes.len() + tracks.len() + events.len());
    for &n in &nodes {
        trace.push(obj! {
            "name" => "process_name",
            "ph" => "M",
            "pid" => n,
            "tid" => 0u64,
            "args" => obj! { "name" => format!("node {n}") },
        });
    }
    for &(n, t) in &tracks {
        trace.push(obj! {
            "name" => "thread_name",
            "ph" => "M",
            "pid" => n,
            "tid" => t,
            "args" => obj! { "name" => track_label(t) },
        });
    }
    let mut flow_id = 0u64;
    for e in events {
        let (name, cat) = (e.event.kind_name(), e.layer.name());
        if let Event::Edge { src_node, src_track, src_ns, .. } = e.event {
            // A causal edge renders as a Perfetto flow pair: `"s"` at the
            // cause endpoint, `"f"` (binding to the enclosing slice end)
            // at the effect endpoint.
            flow_id += 1;
            trace.push(obj! {
                "name" => name,
                "cat" => cat,
                "id" => flow_id,
                "ph" => "s",
                "pid" => src_node,
                "tid" => src_track,
                "ts" => us(src_ns),
                "args" => e.event.args(),
            });
            trace.push(obj! {
                "name" => name,
                "cat" => cat,
                "id" => flow_id,
                "ph" => "f",
                "bp" => "e",
                "pid" => e.node.0,
                "tid" => e.track,
                "ts" => us(e.at.as_nanos()),
                "args" => obj! {},
            });
            continue;
        }
        let mut ev = obj! {
            "name" => name,
            "cat" => cat,
            "pid" => e.node.0,
            "tid" => e.track,
            "ts" => us(e.at.as_nanos()),
        };
        if e.dur_ns > 0 {
            ev.push("ph", "X");
            ev.push("dur", us(e.dur_ns));
        } else {
            ev.push("ph", "i");
            ev.push("s", "t");
        }
        ev.push("args", e.event.args());
        trace.push(ev);
    }
    obj! { "traceEvents" => Value::Arr(trace), "displayTimeUnit" => "ms" }.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Layer};
    use sim::{NodeId, SimTime};

    fn rec(at: u64, dur: u64, node: u32, track: u64, event: Event, layer: Layer) -> EventRecord {
        EventRecord {
            at: SimTime::from_nanos(at),
            dur_ns: dur,
            node: NodeId(node),
            track,
            layer,
            event,
        }
    }

    #[test]
    fn export_is_valid_json_and_deterministic() {
        let evs = vec![
            rec(0, 7_800, 0, NIC_TRACK, Event::SanSend { to: 1, bytes: 4 }, Layer::San),
            rec(500, 0, 1, 3, Event::Fault { page: 7, write: true }, Layer::Proto),
            rec(900, 22_000, 1, 3, Event::FaultSpan { page: 7, write: true }, Layer::Proto),
        ];
        let a = export(&evs);
        let b = export(&evs);
        assert_eq!(a, b);
        crate::json::validate(&a).expect("chrome trace parses");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"name\":\"node 0\""));
        assert!(a.contains("\"name\":\"nic\""));
        // 7800ns span renders as 7.8us.
        assert!(a.contains("\"dur\":7.8,"));
    }

    #[test]
    fn empty_export_is_valid() {
        let a = export(&[]);
        crate::json::validate(&a).expect("empty trace parses");
    }

    #[test]
    fn edges_export_as_flow_pairs() {
        use crate::event::EdgeKind;
        let evs = vec![rec(
            900,
            0,
            1,
            5,
            Event::Edge {
                kind: EdgeKind::LockHandoff,
                src_node: 0,
                src_track: 3,
                src_ns: 100,
                obj: 7,
            },
            EdgeKind::LockHandoff.layer(),
        )];
        let a = export(&evs);
        crate::json::validate(&a).expect("flow trace parses");
        assert!(a.contains("\"ph\":\"s\""), "missing flow start: {a}");
        assert!(a.contains("\"ph\":\"f\",\"bp\":\"e\""), "missing flow finish: {a}");
        // Both endpoints get track metadata, and the pair shares an id.
        assert!(a.contains("\"pid\":0,\"tid\":3,\"ts\":0.1,"));
        assert!(a.contains("\"pid\":1,\"tid\":5,\"ts\":0.9,"));
        assert!(a.contains("\"id\":1"));
    }
}
