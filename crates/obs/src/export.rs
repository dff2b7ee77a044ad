//! Event-stream exporters: JSONL dumps and chrome://tracing JSON.
//!
//! Both formats are rendered from the fixed-size [`Event`] records a
//! [`RingSink`](crate::RingSink) retains; neither allocates on any
//! hot path — exporting happens after the measured region.

use crate::sink::{Event, EventKind};

/// One JSON object per line: `{"phase":"stream","kind":"span",...}`.
///
/// All fields are numbers or fixed enum strings, so no escaping is
/// ever needed.
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        let kind = match ev.kind {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        };
        out.push_str(&format!(
            "{{\"phase\":\"{}\",\"kind\":\"{}\",\"step\":{},\"at_ns\":{},\"dur_ns\":{},\"value\":{}}}\n",
            ev.phase.name(),
            kind,
            ev.step,
            ev.at_ns,
            ev.dur_ns,
            ev.value
        ));
    }
    out
}

/// chrome://tracing (and Perfetto) compatible trace JSON.
///
/// Spans become complete events (`"ph":"X"`) and instants become
/// instant events (`"ph":"i"`); timestamps are microseconds as the
/// format requires, durations keep sub-µs precision as fractions.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        let ts = ev.at_ns as f64 / 1000.0;
        match ev.kind {
            EventKind::Span => {
                let dur = ev.dur_ns as f64 / 1000.0;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
                     \"pid\":0,\"tid\":0,\"args\":{{\"step\":{}}}}}",
                    ev.phase.name(),
                    ev.step
                ));
            }
            EventKind::Instant => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\
                     \"pid\":0,\"tid\":0,\"args\":{{\"step\":{},\"value\":{}}}}}",
                    ev.phase.name(),
                    ev.step,
                    ev.value
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Phase;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                kind: EventKind::Span,
                phase: Phase::Stream,
                step: 1,
                at_ns: 1500,
                dur_ns: 250,
                value: 0,
            },
            Event {
                kind: EventKind::Instant,
                phase: Phase::VectorDispatch,
                step: 1,
                at_ns: 2000,
                dur_ns: 0,
                value: 3,
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = events_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"phase\":\"stream\",\"kind\":\"span\""));
        assert!(lines[0].contains("\"dur_ns\":250"));
        assert!(lines[1].contains("\"phase\":\"vector_dispatch\""));
        assert!(lines[1].contains("\"value\":3"));
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let text = chrome_trace(&sample());
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":1.500"));
        assert!(text.contains("\"dur\":0.250"));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"value\":3"));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[]}");
        assert_eq!(events_jsonl(&[]), "");
    }
}
