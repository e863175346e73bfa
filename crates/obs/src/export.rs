//! Exporter: Chrome `trace_event` JSON.
//!
//! The JSON exporter emits the subset of the Chrome trace-event format
//! that Perfetto and `chrome://tracing` load directly: one `"X"`
//! (complete) event per span with microsecond `ts`/`dur` (fractional, so
//! nanosecond precision survives), plus `"M"` metadata events naming one
//! track per distinct worker/lane/tenant. Track tids are assigned by
//! sorted track name, so the same trace always serializes identically.

use std::io;
use std::path::{Path, PathBuf};

use serde::{write_json_compact, Json};

use crate::span::{drain_spans, trace_env_path, SpanEvent};

const PID: i128 = 1;

fn micros(nanos: u64) -> Json {
    Json::Float(nanos as f64 / 1_000.0)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn span_args(event: &SpanEvent) -> Json {
    let mut args = vec![("thread", Json::Int(event.thread as i128))];
    if let Some(t) = &event.tenant {
        args.push(("tenant", Json::String(t.clone())));
    }
    if let Some(s) = event.session {
        args.push(("session", Json::Int(s as i128)));
    }
    if let Some(i) = event.iteration {
        args.push(("iteration", Json::Int(i as i128)));
    }
    if let Some(n) = &event.node {
        args.push(("node", Json::String(n.clone())));
    }
    if let Some(l) = event.lane {
        args.push(("lane", Json::Int(l as i128)));
    }
    if let Some(a) = event.amount {
        args.push(("amount", Json::Int(a as i128)));
    }
    obj(args)
}

/// Build a Chrome `trace_event` JSON document from drained spans.
///
/// Tracks (one per distinct [`SpanEvent::track_key`]) become threads of
/// a single `helix` process, named via `"M"` metadata events; tids are
/// assigned in sorted track-name order so output is deterministic given
/// the same spans.
pub fn chrome_trace_json(events: &[SpanEvent], dropped: u64) -> Json {
    let mut tracks: Vec<String> = events.iter().map(|e| e.track_key()).collect();
    tracks.sort();
    tracks.dedup();
    let tid_of = |key: &str| -> i128 { tracks.iter().position(|t| t == key).unwrap() as i128 + 1 };

    let mut trace_events = Vec::with_capacity(events.len() + tracks.len() + 1);
    trace_events.push(obj(vec![
        ("name", Json::String("process_name".into())),
        ("ph", Json::String("M".into())),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(0)),
        ("args", obj(vec![("name", Json::String("helix".into()))])),
    ]));
    for track in &tracks {
        trace_events.push(obj(vec![
            ("name", Json::String("thread_name".into())),
            ("ph", Json::String("M".into())),
            ("pid", Json::Int(PID)),
            ("tid", Json::Int(tid_of(track))),
            ("args", obj(vec![("name", Json::String(track.clone()))])),
        ]));
    }
    for event in events {
        trace_events.push(obj(vec![
            ("name", Json::String(event.name.into())),
            ("cat", Json::String(event.cat.into())),
            ("ph", Json::String("X".into())),
            ("pid", Json::Int(PID)),
            ("tid", Json::Int(tid_of(&event.track_key()))),
            ("ts", micros(event.begin)),
            ("dur", micros(event.duration())),
            ("args", span_args(event)),
        ]));
    }

    obj(vec![
        ("traceEvents", Json::Array(trace_events)),
        ("displayTimeUnit", Json::String("ms".into())),
        (
            "otherData",
            obj(vec![
                ("producer", Json::String("helix-obs".into())),
                ("dropped_spans", Json::Int(dropped as i128)),
            ]),
        ),
    ])
}

/// Serialize `events` as Chrome trace JSON and write it to `path`.
pub fn write_trace(path: &Path, events: &[SpanEvent], dropped: u64) -> io::Result<()> {
    std::fs::write(path, write_json_compact(&chrome_trace_json(events, dropped)))
}

/// Drain the global span ring and, if `HELIX_TRACE=<path>` is set, write
/// the Chrome trace there. Returns the path written, if any. Programs
/// call this once on exit.
pub fn write_env_trace() -> io::Result<Option<PathBuf>> {
    let Some(path) = trace_env_path() else {
        return Ok(None);
    };
    let (events, dropped) = drain_spans();
    write_trace(&path, &events, dropped)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, begin: u64, end: u64, track: Option<&str>) -> SpanEvent {
        SpanEvent {
            name,
            cat: "test",
            begin,
            end,
            thread: 0,
            track: track.map(String::from),
            tenant: None,
            session: None,
            iteration: None,
            node: None,
            lane: None,
            amount: None,
        }
    }

    #[test]
    fn trace_json_shape_and_determinism() {
        let events =
            vec![event("compute", 1_000, 4_000, None), event("load", 2_000, 3_000, Some("lane-0"))];
        let json = chrome_trace_json(&events, 7);
        let array = match json.get("traceEvents") {
            Some(Json::Array(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // process_name + 2 thread_name metadata + 2 X events.
        assert_eq!(array.len(), 5);
        for entry in array {
            let ph = match entry.get("ph") {
                Some(Json::String(s)) => s.as_str(),
                _ => panic!("ph missing"),
            };
            assert!(ph == "X" || ph == "M");
        }
        // Deterministic: same spans, same bytes.
        let a = write_json_compact(&json);
        let b = write_json_compact(&chrome_trace_json(&events, 7));
        assert_eq!(a, b);
        // Round-trips through the parser.
        let parsed = serde::parse_json(&a).expect("well-formed JSON");
        assert_eq!(
            parsed.get("otherData").and_then(|o| o.get("dropped_spans")),
            Some(&Json::Int(7))
        );
    }
}
